//! Shared harness helpers.

use ktrace_clock::SyncClock;
use ktrace_core::{TraceConfig, TraceLogger};
use std::sync::Arc;
use std::time::Instant;

/// A flight-recorder logger suitable for hot-loop measurement (never blocks
/// on a consumer).
pub fn bench_logger(ncpus: usize) -> TraceLogger {
    TraceLogger::builder()
        .geometry(
            TraceConfig {
                buffer_words: 16 * 1024,
                buffers_per_cpu: 8,
                ..TraceConfig::default()
            }
            .flight_recorder(),
        )
        .clock(Arc::new(SyncClock::new()))
        .ncpus(ncpus)
        .build()
        .expect("valid bench config")
}

/// Times `iters` executions of `f`, returning mean nanoseconds per call.
pub fn time_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    // Warm up.
    for _ in 0..(iters / 10).max(1) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Least-squares slope/intercept of `points` (x, y).
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (x, y) in points {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
    }
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    (slope, my - slope * mx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 7.0)).collect();
        let (slope, intercept) = linear_fit(&pts);
        assert!((slope - 3.0).abs() < 1e-9);
        assert!((intercept - 7.0).abs() < 1e-9);
    }

    #[test]
    fn time_per_call_returns_positive() {
        let ns = time_per_call(1000, || {
            std::hint::black_box(42u64.wrapping_mul(3));
        });
        assert!(ns >= 0.0);
    }
}
