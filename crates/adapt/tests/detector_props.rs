//! Property tests for the anomaly detector.
//!
//! The detector sits between raw (possibly garbage) counters and a
//! controller that sheds real tracing detail, so its math must be total:
//!
//! 1. **No NaN / no panic**: any sequence of track values — adversarial,
//!    maximal, wrapping — produces finite verdicts.
//! 2. **Counter-wrap tolerance**: cumulative snapshots whose counters step
//!    backwards (restart or wrap) never fire; deltas saturate to zero.
//! 3. **Quiet means quiet**: a constant stream never fires once warm.
//!
//! The vendored proptest stub supplies deterministic seeds; each seed
//! expands into a value stream via splitmix64.

use ktrace_adapt::detector::{MIN_SAMPLES, WINDOW};
use ktrace_adapt::{Anomaly, Detector, NUM_TRACKS};
use ktrace_telemetry::TelemetrySnapshot;
use proptest::prelude::*;

struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn finite(a: &Anomaly) -> bool {
    a.track < NUM_TRACKS && a.z_milli >= 0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Adversarial raw value streams: extreme magnitudes, alternating
    /// zeros, u64::MAX — the detector stays finite and in-range.
    #[test]
    fn adversarial_streams_never_panic(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let mut d = Detector::default();
        for step in 0..64u64 {
            let mut v = [0u64; NUM_TRACKS];
            for slot in v.iter_mut() {
                *slot = match g.next() % 4 {
                    0 => 0,
                    1 => g.next() % 1000,
                    2 => u64::MAX,
                    _ => u64::MAX - (g.next() % 65536),
                };
            }
            let fired = d.observe_values(v);
            for a in &fired {
                prop_assert!(finite(a), "step {step}: non-finite verdict {a:?}");
                prop_assert!(v.contains(&a.value));
            }
        }
    }

    /// Cumulative snapshot streams with random restarts (counters jumping
    /// backwards): the saturating delta absorbs the wrap without firing on
    /// the wrapped interval itself.
    #[test]
    fn counter_wraps_saturate(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let mut d = Detector::default();
        let mut level = 0u64;
        for _ in 0..48 {
            if g.next().is_multiple_of(8) {
                level = 0; // restart: every counter below its predecessor
            } else {
                level = level.saturating_add(g.next() % 64);
            }
            let mut snap = TelemetrySnapshot::default();
            snap.per_cpu.push(ktrace_telemetry::CpuTelemetry {
                cpu: 0,
                events_dropped: level,
                cas_retries: level / 2,
                buffer_wraps: level / 4,
                ..Default::default()
            });
            for a in d.observe(&snap) {
                prop_assert!(finite(&a));
            }
        }
    }

    /// A constant stream is silent, whatever the constant and however far
    /// it runs: before the window fills, as it fills, and as it slides.
    #[test]
    fn constant_streams_are_silent(value in any::<u64>(), steps in 1usize..4 * WINDOW) {
        let mut d = Detector::default();
        for step in 0..steps {
            let fired = d.observe_values([value; NUM_TRACKS]);
            prop_assert!(fired.is_empty(), "step {step} fired {fired:?}");
        }
    }

    /// Warmup never fires, no matter how violent the first observations.
    #[test]
    fn cold_start_is_silent(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let mut d = Detector::default();
        for _ in 0..MIN_SAMPLES {
            let v = [g.next(), g.next(), g.next(), g.next()];
            prop_assert!(d.observe_values(v).is_empty());
        }
    }
}
