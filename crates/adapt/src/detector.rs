//! Dependency-free anomaly detection over telemetry delta tracks.
//!
//! The detector watches the per-interval deltas of four health tracks
//! (fixed by [`control::ANOMALY_TRACKS`]): the drop rate, reservation CAS
//! retries, buffer wraps, and the reservation-wait tail (p99). Each track
//! keeps an EWMA baseline and a sliding window of residuals against that
//! baseline; a new observation is scored with a **robust z-score**
//! (`0.6745 * (r - median) / MAD`), so a single spike cannot poison the
//! scale estimate the way a mean/stddev pair would.
//!
//! A track fires only when three guards all pass: the window holds at least
//! `min_samples` residuals (cold-start protection), the observation clears
//! the track's absolute floor (a z-score over an all-zero history is
//! meaningless), and the score exceeds `z_threshold`. A zero MAD falls back
//! to an epsilon scale, so the math is total: no input — including
//! adversarial or wrapping counter streams — can produce NaN or a panic
//! (pinned by the crate's proptests).

use ktrace_format::ids::control;
use ktrace_telemetry::{hist_quantile, TelemetrySnapshot, HIST_BUCKETS};
use std::collections::VecDeque;

/// Number of watched tracks (the length of [`control::ANOMALY_TRACKS`]).
pub const NUM_TRACKS: usize = control::ANOMALY_TRACKS.len();

/// Track indices, matching [`control::ANOMALY_TRACKS`] order.
pub mod track {
    /// Events dropped per interval (producer overrun + sink-side loss).
    pub const DROP_RATE: usize = 0;
    /// Reservation CAS retries per interval.
    pub const CAS_RETRIES: usize = 1;
    /// Buffer-boundary crossings per interval.
    pub const BUFFER_WRAPS: usize = 2;
    /// p99 reservation wait over the interval (ticks).
    pub const RESERVE_WAIT_P99: usize = 3;
}

/// Detector tuning. The defaults are deliberately conservative: the
/// controller acting on verdicts sheds real detail, so a false positive is
/// costlier than a missed interval.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// EWMA smoothing factor for the per-track baseline (0 < alpha <= 1).
    pub ewma_alpha: f64,
    /// Residual window length for the median/MAD estimate.
    pub window: usize,
    /// Minimum residuals in the window before a track may fire.
    pub min_samples: usize,
    /// Robust z-score above which a track fires.
    pub z_threshold: f64,
    /// Absolute per-interval floor per track: observations at or below the
    /// floor never fire, whatever their score. Index-aligned with
    /// [`control::ANOMALY_TRACKS`].
    pub floors: [u64; NUM_TRACKS],
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            ewma_alpha: 0.3,
            window: 32,
            min_samples: 4,
            z_threshold: 3.5,
            // drop_rate, cas_retries, buffer_wraps, reserve_wait_p99
            floors: [0, 16, 8, 1024],
        }
    }
}

/// One fired verdict: track `track` observed `value` this interval, scoring
/// `z_milli` thousandths of a robust standard deviation above baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anomaly {
    /// Index into [`control::ANOMALY_TRACKS`].
    pub track: usize,
    /// The per-interval delta value that fired.
    pub value: u64,
    /// Robust z-score in milli-units, clamped to `[0, i64::MAX]`.
    pub z_milli: i64,
}

impl Anomaly {
    /// The track's name from the shared schema.
    pub fn track_name(&self) -> &'static str {
        control::ANOMALY_TRACKS[self.track]
    }
}

#[derive(Debug, Clone, Default)]
struct TrackState {
    ewma: f64,
    seeded: bool,
    residuals: VecDeque<f64>,
}

impl TrackState {
    /// Scores `x` against the current state, then absorbs it. Returns the
    /// robust z-score of the pre-update residual (0 while cold).
    fn score_and_absorb(&mut self, x: f64, cfg: &DetectorConfig) -> f64 {
        let baseline = if self.seeded { self.ewma } else { x };
        let residual = x - baseline;
        let z = if self.residuals.len() >= cfg.min_samples {
            robust_z(residual, self.residuals.make_contiguous())
        } else {
            0.0
        };
        self.ewma = if self.seeded {
            cfg.ewma_alpha * x + (1.0 - cfg.ewma_alpha) * self.ewma
        } else {
            self.seeded = true;
            x
        };
        self.residuals.push_back(residual);
        while self.residuals.len() > cfg.window.max(1) {
            self.residuals.pop_front();
        }
        z
    }
}

/// `0.6745 * (x - median) / MAD`, with a zero MAD replaced by an epsilon
/// scale so the result is always finite.
fn robust_z(x: f64, window: &[f64]) -> f64 {
    let med = median(window);
    let deviations: Vec<f64> = window.iter().map(|v| (v - med).abs()).collect();
    let mad = median(&deviations);
    let scale = if mad > f64::EPSILON { mad } else { 1e-9 };
    let z = 0.6745 * (x - med) / scale;
    if z.is_finite() {
        z
    } else {
        0.0
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The anomaly detector: feed it telemetry snapshots (or raw track values)
/// once per control interval; it returns the tracks that fired.
#[derive(Debug, Clone)]
pub struct Detector {
    cfg: DetectorConfig,
    tracks: [TrackState; NUM_TRACKS],
    prev: Option<TelemetrySnapshot>,
}

impl Detector {
    /// A detector with the given tuning.
    pub fn new(cfg: DetectorConfig) -> Detector {
        Detector {
            cfg,
            tracks: Default::default(),
            prev: None,
        }
    }

    /// The active tuning.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Extracts the four per-interval track values from a snapshot delta.
    pub fn track_values(delta: &TelemetrySnapshot) -> [u64; NUM_TRACKS] {
        let drops = delta.events_dropped() + delta.sink.events_lost;
        let wraps: u64 = delta.per_cpu.iter().map(|c| c.buffer_wraps).sum();
        let mut wait = [0u64; HIST_BUCKETS];
        for c in &delta.per_cpu {
            for (slot, n) in wait.iter_mut().zip(c.reserve_wait.iter()) {
                *slot += n;
            }
        }
        [
            drops,
            delta.cas_retries(),
            wraps,
            hist_quantile(&wait, 0.99),
        ]
    }

    /// Observes a cumulative telemetry snapshot: the first call seeds the
    /// interval baseline and fires nothing; each later call scores the
    /// delta against the previous snapshot. Counters that step backwards
    /// (restart, wrap) saturate to zero deltas rather than firing.
    pub fn observe(&mut self, snap: &TelemetrySnapshot) -> Vec<Anomaly> {
        let verdicts = match self.prev.take() {
            Some(prev) => self.observe_values(Detector::track_values(&snap.delta(&prev))),
            None => Vec::new(),
        };
        self.prev = Some(snap.clone());
        verdicts
    }

    /// Observes one interval's raw track values directly (the collectd
    /// health plane and the proptests feed the detector this way).
    pub fn observe_values(&mut self, values: [u64; NUM_TRACKS]) -> Vec<Anomaly> {
        let mut fired = Vec::new();
        for (i, (&value, state)) in values.iter().zip(self.tracks.iter_mut()).enumerate() {
            let z = state.score_and_absorb(value as f64, &self.cfg);
            if value > self.cfg.floors[i] && z > self.cfg.z_threshold {
                fired.push(Anomaly {
                    track: i,
                    value,
                    z_milli: clamp_milli(z),
                });
            }
        }
        fired
    }
}

impl Default for Detector {
    fn default() -> Detector {
        Detector::new(DetectorConfig::default())
    }
}

fn clamp_milli(z: f64) -> i64 {
    let scaled = z * 1000.0;
    if !scaled.is_finite() {
        return 0;
    }
    scaled.clamp(0.0, i64::MAX as f64) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_telemetry::ReserveTally;

    fn quiet_then_spike(d: &mut Detector, track_idx: usize, spike: u64) -> Vec<Anomaly> {
        for _ in 0..16 {
            let mut v = [0u64; NUM_TRACKS];
            v[track_idx] = 1;
            assert!(d.observe_values(v).is_empty(), "steady state fires nothing");
        }
        let mut v = [0u64; NUM_TRACKS];
        v[track_idx] = spike;
        d.observe_values(v)
    }

    #[test]
    fn spike_over_quiet_baseline_fires() {
        let mut d = Detector::default();
        let fired = quiet_then_spike(&mut d, track::DROP_RATE, 100_000);
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_eq!(fired[0].track, track::DROP_RATE);
        assert_eq!(fired[0].value, 100_000);
        assert!(fired[0].z_milli > 3500);
        assert_eq!(fired[0].track_name(), "drop_rate");
    }

    #[test]
    fn floors_suppress_small_jitter() {
        let mut d = Detector::default();
        // cas_retries floor is 16: a "spike" to 10 scores high over a flat
        // baseline but stays under the floor.
        let fired = quiet_then_spike(&mut d, track::CAS_RETRIES, 10);
        assert!(fired.is_empty(), "{fired:?}");
    }

    #[test]
    fn cold_start_never_fires() {
        let mut d = Detector::default();
        for i in 0..d.cfg.min_samples {
            let fired = d.observe_values([u64::MAX; NUM_TRACKS]);
            assert!(fired.is_empty(), "interval {i} fired during warmup");
        }
    }

    #[test]
    fn snapshot_deltas_feed_the_tracks() {
        use ktrace_telemetry::Telemetry;
        let t = Telemetry::new(1);
        let mut d = Detector::default();
        assert!(d.observe(&t.snapshot()).is_empty(), "first call seeds");
        for _ in 0..12 {
            t.cpu(0).tally_dropped();
            assert!(d.observe(&t.snapshot()).is_empty());
        }
        for _ in 0..50_000 {
            t.cpu(0).tally_dropped();
        }
        let fired = d.observe(&t.snapshot());
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_eq!(fired[0].track, track::DROP_RATE);
    }

    #[test]
    fn backwards_counters_saturate_quietly() {
        let mut d = Detector::default();
        let mut hot = TelemetrySnapshot::default();
        hot.sink.events_lost = u64::MAX;
        assert!(d.observe(&hot).is_empty());
        // The next snapshot "restarted": counters below the previous ones.
        assert!(d.observe(&TelemetrySnapshot::default()).is_empty());
    }

    #[test]
    fn constant_stream_is_never_anomalous() {
        let mut d = Detector::default();
        for _ in 0..200 {
            assert!(d.observe_values([5, 500, 50, 5000]).is_empty());
        }
    }

    #[test]
    fn track_values_extracts_all_four() {
        let mut delta = TelemetrySnapshot::default();
        let mut cpu = ktrace_telemetry::CpuTelemetry {
            cpu: 0,
            events_dropped: 7,
            cas_retries: 3,
            buffer_wraps: 2,
            ..Default::default()
        };
        cpu.reserve_wait[10] = 100; // every wait in bucket 10
        delta.per_cpu.push(cpu);
        delta.sink.events_lost = 5;
        let v = Detector::track_values(&delta);
        assert_eq!(v[track::DROP_RATE], 12);
        assert_eq!(v[track::CAS_RETRIES], 3);
        assert_eq!(v[track::BUFFER_WRAPS], 2);
        assert!(v[track::RESERVE_WAIT_P99] > 0);
    }
}
