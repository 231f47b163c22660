//! Per-major sampling gate: counter decimation on the hot path.
//!
//! The trace mask is all-or-nothing per major class; the adaptive control
//! plane (`ktrace-adapt`) needs something between "full detail" and "off"
//! when the tracer is overrunning its consumer. [`SampleGate`] keeps one
//! sampling rate per major: rate 1 admits every event, rate `n` admits one
//! event in `n` (decided by a relaxed per-major tick counter, so the choice
//! is global across CPUs, not per-thread).
//!
//! Cost model: the common case is rate 1, where [`SampleGate::admit`] is a
//! single relaxed load and a compare — measured under 1% of the event cost
//! by the E23 gate (`ktrace-bench adapt_gate`). Only while the
//! controller is actively shedding (rate > 1) does the path pay a relaxed
//! `fetch_add`; that contention is accepted precisely because the system is
//! overloaded and dropping events anyway.
//!
//! `CONTROL` traffic is never sampled: the stream is undecodable without
//! its anchors and fillers, so [`SampleGate::set_rate`] pins major 0 at
//! rate 1, mirroring [`TraceMask`](crate::TraceMask)'s undisablable
//! CONTROL bit.

use crate::ids::{MajorId, NUM_MAJOR_IDS};
use crate::protocol::{ExactCounter, StatisticCounter};

/// The per-major sampling rates consulted by every `log*` fast path.
///
/// Rates are observed "eventually" by loggers, exactly like trace-mask
/// updates: a rate change needs no ordering, only eventual visibility.
pub struct SampleGate {
    /// Sampling rate per major: 1 = keep everything, `n` = keep 1-in-`n`.
    /// Written only by the (single) controller, read by every logger.
    rates: [StatisticCounter; NUM_MAJOR_IDS],
    /// Decimation tick per major, advanced only while its rate exceeds 1.
    ticks: [ExactCounter; NUM_MAJOR_IDS],
}

impl SampleGate {
    /// A gate admitting everything (every rate 1).
    pub fn new() -> SampleGate {
        SampleGate {
            rates: core::array::from_fn(|_| StatisticCounter::new(1)),
            ticks: core::array::from_fn(|_| ExactCounter::new(0)),
        }
    }

    /// Decides whether the next event of `major` is kept. Rate 1 (the
    /// default) is one relaxed load and a compare; higher rates pay one
    /// relaxed `fetch_add` and keep every `rate`-th event.
    #[inline]
    pub fn admit(&self, major: MajorId) -> bool {
        let slot = major.raw() as usize;
        let rate = self.rates[slot].load();
        if rate <= 1 {
            return true;
        }
        self.ticks[slot].add(1).is_multiple_of(rate)
    }

    /// Sets `major`'s sampling rate, returning the previous one. Rates are
    /// clamped to at least 1, and `CONTROL` is pinned at 1 — control
    /// traffic keeps the stream decodable and is never decimated.
    pub fn set_rate(&self, major: MajorId, rate: u64) -> u64 {
        let rate = if major == MajorId::CONTROL {
            1
        } else {
            rate.max(1)
        };
        let slot = &self.rates[major.raw() as usize];
        let old = slot.load();
        slot.store(rate);
        old
    }

    /// The current sampling rate for `major`.
    pub fn rate(&self, major: MajorId) -> u64 {
        self.rates[major.raw() as usize].load()
    }

    /// True if any major is currently decimated (rate above 1).
    pub fn any_active(&self) -> bool {
        MajorId::all().any(|m| self.rate(m) > 1)
    }

    /// Resets every rate back to 1 (full detail).
    pub fn clear(&self) {
        for m in MajorId::all() {
            self.set_rate(m, 1);
        }
    }
}

impl Default for SampleGate {
    fn default() -> SampleGate {
        SampleGate::new()
    }
}

impl core::fmt::Debug for SampleGate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let active = MajorId::all().filter_map(|m| {
            let r = self.rate(m);
            (r > 1).then_some((m.raw(), r))
        });
        f.write_str("SampleGate { active: ")?;
        f.debug_list().entries(active).finish()?;
        f.write_str(" }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rate_admits_everything() {
        let g = SampleGate::new();
        assert!((0..1000).all(|_| g.admit(MajorId::MEM)));
        assert!(!g.any_active());
    }

    #[test]
    fn decimation_keeps_one_in_n() {
        let g = SampleGate::new();
        assert_eq!(g.set_rate(MajorId::MEM, 4), 1);
        let kept = (0..1000).filter(|_| g.admit(MajorId::MEM)).count();
        assert_eq!(kept, 250);
        assert!(g.any_active());
        // Other majors are untouched.
        assert!((0..100).all(|_| g.admit(MajorId::SCHED)));
    }

    #[test]
    fn control_is_pinned_and_rates_clamp() {
        let g = SampleGate::new();
        assert_eq!(g.set_rate(MajorId::CONTROL, 64), 1);
        assert_eq!(g.rate(MajorId::CONTROL), 1);
        g.set_rate(MajorId::MEM, 0);
        assert_eq!(g.rate(MajorId::MEM), 1, "rate 0 clamps to 1");
    }

    #[test]
    fn clear_restores_full_detail() {
        let g = SampleGate::new();
        g.set_rate(MajorId::MEM, 8);
        g.set_rate(MajorId::LOCK, 2);
        g.clear();
        assert!(!g.any_active());
        assert_eq!(g.rate(MajorId::MEM), 1);
    }
}
