//! Sampling gate: counter decimation on the hot path.
//!
//! The trace mask is all-or-nothing per major class; the adaptive control
//! plane (`ktrace-adapt`) needs something between "full detail" and "off"
//! when the tracer is overrunning its consumer. [`SampleGate`] keeps one
//! sampling rate for every major: rate 1 admits every event, rate `n`
//! admits one event in `n` of each major (decided by a relaxed per-major
//! tick counter, so the choice is global across CPUs, not per-thread, and
//! interleaved majors are each kept 1-in-`n`).
//!
//! Cost model: the common case is rate 1, where [`SampleGate::admit`] is a
//! single relaxed load and a compare — measured under 1% of the event cost
//! by the E23 gate (`ktrace-bench adapt_gate`). Only while the
//! controller is actively shedding (rate > 1) does the path pay a relaxed
//! `fetch_add`; that contention is accepted precisely because the system is
//! overloaded and dropping events anyway.
//!
//! `CONTROL` traffic is never sampled: the stream is undecodable without
//! its anchors and fillers, so [`SampleGate::admit`] admits major 0 at any
//! rate, mirroring [`TraceMask`](crate::TraceMask)'s undisablable CONTROL
//! bit.

use crate::ids::{MajorId, NUM_MAJOR_IDS};
use crate::protocol::{ExactCounter, StatisticCounter};

/// The sampling rate consulted by every `log*` fast path.
///
/// The rate is observed "eventually" by loggers, exactly like trace-mask
/// updates: a rate change needs no ordering, only eventual visibility.
pub struct SampleGate {
    /// Sampling rate: 1 = keep everything, `n` = keep 1-in-`n` of each
    /// major but `CONTROL`. Written only by the (single) controller, read
    /// by every logger.
    rate: StatisticCounter,
    /// Decimation tick per major, advanced only while the rate exceeds 1.
    ticks: [ExactCounter; NUM_MAJOR_IDS],
}

impl SampleGate {
    /// A gate admitting everything (rate 1).
    pub fn new() -> SampleGate {
        SampleGate {
            rate: StatisticCounter::new(1),
            ticks: core::array::from_fn(|_| ExactCounter::new(0)),
        }
    }

    /// Decides whether the next event of `major` is kept. Rate 1 (the
    /// default) is one relaxed load and a compare; higher rates pay one
    /// relaxed `fetch_add` on `major`'s tick and keep every `rate`-th event.
    #[inline]
    pub fn admit(&self, major: MajorId) -> bool {
        let rate = self.rate.load();
        if rate <= 1 || major == MajorId::CONTROL {
            return true;
        }
        self.ticks[major.raw() as usize].add(1).is_multiple_of(rate)
    }

    /// Sets the sampling rate, clamped to at least 1, returning the
    /// previous one.
    pub fn set_rate(&self, rate: u64) -> u64 {
        let old = self.rate.load();
        self.rate.store(rate.max(1));
        old
    }

    /// The current sampling rate.
    pub fn rate(&self) -> u64 {
        self.rate.load()
    }
}

impl Default for SampleGate {
    fn default() -> SampleGate {
        SampleGate::new()
    }
}

impl core::fmt::Debug for SampleGate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SampleGate")
            .field("rate", &self.rate())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rate_admits_everything() {
        let g = SampleGate::new();
        assert!((0..1000).all(|_| g.admit(MajorId::MEM)));
        assert_eq!(g.rate(), 1);
    }

    #[test]
    fn decimation_keeps_one_in_n() {
        let g = SampleGate::new();
        assert_eq!(g.set_rate(4), 1);
        // Interleaved majors each keep 1-in-4: the tick is per major, so
        // one major's events never decide another's.
        let (mut mem, mut sched) = (0, 0);
        for _ in 0..1000 {
            mem += usize::from(g.admit(MajorId::MEM));
            sched += usize::from(g.admit(MajorId::SCHED));
        }
        assert_eq!((mem, sched), (250, 250));
    }

    #[test]
    fn control_is_pinned_and_rates_clamp() {
        let g = SampleGate::new();
        g.set_rate(64);
        assert!((0..100).all(|_| g.admit(MajorId::CONTROL)));
        assert_eq!(g.set_rate(0), 64);
        assert_eq!(g.rate(), 1, "rate 0 clamps to 1");
    }

    #[test]
    fn clear_restores_full_detail() {
        // Clearing the shed is setting rate 1.
        let g = SampleGate::new();
        g.set_rate(8);
        assert_eq!(g.set_rate(1), 8);
        assert!((0..100).all(|_| g.admit(MajorId::MEM)));
    }
}
