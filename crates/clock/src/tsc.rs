//! A per-CPU TSC-like clock with configurable skew and drift.
//!
//! x86 machines of the paper's era had per-CPU timestamp counters that were
//! cheap to read but neither mutually synchronized (boot-time *skew*) nor
//! running at exactly the same rate (*drift*). [`TscClock`] wraps an
//! underlying "true time" source and distorts it per CPU, so the
//! interpolation-based synchronization of [`crate::interpolate`] can be
//! exercised — and its error measured — under controlled distortion.

use crate::source::ClockSource;
use std::sync::Arc;

/// Per-CPU distortion parameters for a [`TscClock`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TscParams {
    /// Constant offset added to the true time, in ticks (boot skew).
    pub offset: i64,
    /// Rate error in parts per million: +50.0 means this CPU's TSC runs
    /// 50 ppm fast.
    pub drift_ppm: f64,
}

impl TscParams {
    /// No distortion.
    pub const IDEAL: TscParams = TscParams {
        offset: 0,
        drift_ppm: 0.0,
    };

    fn distort(&self, true_ticks: u64) -> u64 {
        let scaled = true_ticks as f64 * (1.0 + self.drift_ppm * 1e-6);
        let v = scaled + self.offset as f64;
        if v <= 0.0 {
            0
        } else {
            v as u64
        }
    }

    /// Maps a distorted reading back to true time (used by tests as the
    /// oracle the interpolator is judged against).
    pub fn undistort(&self, tsc: u64) -> u64 {
        let v = (tsc as f64 - self.offset as f64) / (1.0 + self.drift_ppm * 1e-6);
        if v <= 0.0 {
            0
        } else {
            v as u64
        }
    }
}

/// A TSC-model clock: per-CPU skewed/drifting views of one true time source.
pub struct TscClock {
    inner: Arc<dyn ClockSource>,
    params: Vec<TscParams>,
}

impl TscClock {
    /// Wraps `inner` with per-CPU distortion `params` (one entry per CPU;
    /// CPUs beyond the slice are undistorted).
    pub fn new(inner: Arc<dyn ClockSource>, params: Vec<TscParams>) -> TscClock {
        TscClock { inner, params }
    }

    /// The distortion parameters for `cpu`.
    pub fn params(&self, cpu: usize) -> TscParams {
        self.params.get(cpu).copied().unwrap_or(TscParams::IDEAL)
    }
}

impl std::fmt::Debug for TscClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TscClock")
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl ClockSource for TscClock {
    #[inline]
    fn now(&self, cpu: usize) -> u64 {
        self.params(cpu).distort(self.inner.now(cpu))
    }

    fn ticks_per_sec(&self) -> u64 {
        self.inner.ticks_per_sec()
    }

    fn synchronized(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ManualClock;

    fn fixture() -> (Arc<ManualClock>, TscClock) {
        let inner = Arc::new(ManualClock::new(0, 0));
        let clock = TscClock::new(
            inner.clone(),
            vec![
                TscParams::IDEAL,
                TscParams {
                    offset: 1_000_000,
                    drift_ppm: 0.0,
                },
                TscParams {
                    offset: -500,
                    drift_ppm: 100.0,
                },
            ],
        );
        (inner, clock)
    }

    #[test]
    fn offset_shifts_readings() {
        let (inner, clock) = fixture();
        inner.set(5_000_000);
        assert_eq!(clock.now(0), 5_000_000);
        assert_eq!(clock.now(1), 6_000_000);
    }

    #[test]
    fn drift_scales_readings() {
        let (inner, clock) = fixture();
        inner.set(1_000_000_000); // 1s at 100ppm fast => +100_000 ticks
        let t = clock.now(2);
        assert_eq!(t, 1_000_100_000 - 500);
    }

    #[test]
    fn negative_results_clamp_to_zero() {
        let (inner, clock) = fixture();
        inner.set(100);
        assert_eq!(clock.now(2), 0);
    }

    #[test]
    fn undistort_inverts_distort() {
        let p = TscParams {
            offset: 12345,
            drift_ppm: -75.0,
        };
        for true_t in [0u64, 1_000, 1_000_000_000, 123_456_789_012] {
            let tsc = p.distort(true_t);
            let back = p.undistort(tsc);
            let err = back.abs_diff(true_t);
            assert!(err <= 1, "true {true_t} -> tsc {tsc} -> back {back}");
        }
    }

    #[test]
    fn unlisted_cpus_are_ideal_and_clock_is_unsynchronized() {
        let (inner, clock) = fixture();
        inner.set(42);
        assert_eq!(clock.now(99), 42);
        assert!(!clock.synchronized());
    }
}
