//! Anchor-pair interpolation: LTT's x86 timestamp-synchronization scheme.
//!
//! Paper §4.1: "x86 architectures do not provide such a clock. Instead, LTT
//! logs the cheaply available tsc with each event, and only at the beginning
//! and end is the more expensive get_timeOfDay call made allowing
//! synchronization between different processors' buffers through interpolation
//! of the tsc values between the get_timeOfDay values."
//!
//! [`CpuTimeMap`] fits a linear map `wall ≈ a·tsc + b` per CPU from anchor
//! pairs (a cheap TSC reading paired with an expensive wall-clock reading).
//! With two anchors this is exact two-point interpolation; with more it is a
//! least-squares fit, which tolerates jitter in the wall-clock readings.

use std::collections::BTreeMap;

/// One simultaneous (tsc, wall-clock) observation on some CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchorPair {
    /// The cheap per-CPU counter value.
    pub tsc: u64,
    /// The expensive globally synchronized time, in ticks.
    pub wall: u64,
}

/// A fitted linear map from one CPU's TSC domain to global wall time.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimeMap {
    /// Slope: wall ticks per tsc tick.
    slope: f64,
    /// Intercept in wall ticks.
    intercept: f64,
}

impl CpuTimeMap {
    /// Fits from anchor pairs.
    ///
    /// * 0 anchors → `None` (no basis for a map).
    /// * 1 anchor → pure offset map (slope 1), matching what LTT can do with
    ///   a single `gettimeofday` reading.
    /// * ≥ 2 anchors → least-squares linear fit (two anchors reduce to exact
    ///   two-point interpolation).
    pub fn fit(anchors: &[AnchorPair]) -> Option<CpuTimeMap> {
        match anchors {
            [] => None,
            [a] => Some(CpuTimeMap {
                slope: 1.0,
                intercept: a.wall as f64 - a.tsc as f64,
            }),
            many => {
                let n = many.len() as f64;
                // Center to keep the normal equations well conditioned with
                // large u64 magnitudes.
                let mx = many.iter().map(|a| a.tsc as f64).sum::<f64>() / n;
                let my = many.iter().map(|a| a.wall as f64).sum::<f64>() / n;
                let mut sxx = 0.0;
                let mut sxy = 0.0;
                for a in many {
                    let dx = a.tsc as f64 - mx;
                    let dy = a.wall as f64 - my;
                    sxx += dx * dx;
                    sxy += dx * dy;
                }
                let slope = if sxx == 0.0 { 1.0 } else { sxy / sxx };
                Some(CpuTimeMap {
                    slope,
                    intercept: my - slope * mx,
                })
            }
        }
    }

    /// Maps a TSC reading to estimated global wall time (saturating at 0).
    pub fn map(&self, tsc: u64) -> u64 {
        let v = self.slope * tsc as f64 + self.intercept;
        if v <= 0.0 {
            0
        } else {
            v as u64
        }
    }

    /// The fitted slope (≈ 1 + drift).
    pub fn slope(&self) -> f64 {
        self.slope
    }
}

/// Collects anchors per CPU and maps per-CPU timestamps into one global
/// timeline — the post-processing half of the LTT x86 scheme.
#[derive(Debug, Default)]
pub struct TscSynchronizer {
    anchors: BTreeMap<usize, Vec<AnchorPair>>,
    maps: BTreeMap<usize, CpuTimeMap>,
}

impl TscSynchronizer {
    /// An empty synchronizer.
    pub fn new() -> TscSynchronizer {
        TscSynchronizer::default()
    }

    /// Records an anchor observation for `cpu` (e.g. at buffer start/end).
    pub fn add_anchor(&mut self, cpu: usize, anchor: AnchorPair) {
        self.anchors.entry(cpu).or_default().push(anchor);
        self.maps.remove(&cpu); // invalidate fit
    }

    /// Maps a TSC reading from `cpu` to global time. Returns `None` if the
    /// CPU has no anchors.
    pub fn to_global(&mut self, cpu: usize, tsc: u64) -> Option<u64> {
        if !self.maps.contains_key(&cpu) {
            let fit = CpuTimeMap::fit(self.anchors.get(&cpu)?)?;
            self.maps.insert(cpu, fit);
        }
        Some(self.maps[&cpu].map(tsc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ClockSource, ManualClock};
    use crate::tsc::{TscClock, TscParams};
    use std::sync::Arc;

    #[test]
    fn no_anchors_yields_no_map() {
        assert!(CpuTimeMap::fit(&[]).is_none());
        let mut s = TscSynchronizer::new();
        assert_eq!(s.to_global(0, 100), None);
    }

    #[test]
    fn single_anchor_offset_map() {
        let m = CpuTimeMap::fit(&[AnchorPair {
            tsc: 1000,
            wall: 5000,
        }])
        .unwrap();
        assert_eq!(m.map(1000), 5000);
        assert_eq!(m.map(1500), 5500);
    }

    #[test]
    fn two_point_interpolation_is_exact() {
        // CPU runs 2x fast with offset: wall = tsc/2 + 100.
        let m = CpuTimeMap::fit(&[
            AnchorPair { tsc: 0, wall: 100 },
            AnchorPair {
                tsc: 2000,
                wall: 1100,
            },
        ])
        .unwrap();
        assert_eq!(m.map(1000), 600);
        assert!((m.slope() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identical_tsc_anchors_do_not_divide_by_zero() {
        let m = CpuTimeMap::fit(&[
            AnchorPair {
                tsc: 500,
                wall: 100,
            },
            AnchorPair {
                tsc: 500,
                wall: 200,
            },
        ])
        .unwrap();
        // Degenerate fit falls back to slope 1; must not panic or NaN.
        assert!(m.map(500) > 0);
    }

    #[test]
    fn interpolation_recovers_true_time_under_skew_and_drift() {
        // End-to-end against the TscClock distortion model (experiment E13's
        // inner loop): anchors at start and end, events in between.
        let inner = Arc::new(ManualClock::new(0, 0));
        let params = TscParams {
            offset: 987_654,
            drift_ppm: 120.0,
        };
        let clock = TscClock::new(inner.clone(), vec![TscParams::IDEAL, params]);

        let mut sync = TscSynchronizer::new();
        let span = 2_000_000_000u64; // 2 simulated seconds
        for &t in &[0u64, span] {
            inner.set(t);
            sync.add_anchor(
                1,
                AnchorPair {
                    tsc: clock.now(1),
                    wall: t,
                },
            );
        }

        let mut worst = 0u64;
        for i in 1..100 {
            let truth = span * i / 100;
            inner.set(truth);
            let est = sync.to_global(1, clock.now(1)).unwrap();
            worst = worst.max(est.abs_diff(truth));
        }
        // Two-point interpolation absorbs both constant skew and linear
        // drift almost entirely; residual is rounding noise.
        assert!(worst <= 2, "worst error {worst} ticks");
    }

    #[test]
    fn least_squares_tolerates_anchor_jitter() {
        // wall = tsc + 10_000 with ±40 ticks of jitter on the wall readings.
        let jitter = [37i64, -21, 8, -40, 15, 31, -5, -29];
        let anchors: Vec<AnchorPair> = (0..8)
            .map(|i| {
                let tsc = 1_000_000 * (i as u64 + 1);
                AnchorPair {
                    tsc,
                    wall: (tsc as i64 + 10_000 + jitter[i]) as u64,
                }
            })
            .collect();
        let m = CpuTimeMap::fit(&anchors).unwrap();
        for probe in [1_500_000u64, 4_321_000, 7_900_000] {
            let err = m.map(probe).abs_diff(probe + 10_000);
            assert!(err <= 60, "err {err} at {probe}");
        }
    }

    #[test]
    fn adding_anchor_invalidates_cached_fit() {
        let mut s = TscSynchronizer::new();
        s.add_anchor(0, AnchorPair { tsc: 0, wall: 0 });
        assert_eq!(s.to_global(0, 100), Some(100));
        // Second anchor reveals a 2x slope; the map must refit.
        s.add_anchor(
            0,
            AnchorPair {
                tsc: 1000,
                wall: 2000,
            },
        );
        assert_eq!(s.to_global(0, 100), Some(200));
    }
}
