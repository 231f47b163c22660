//! The [`EventSink`] trait and the reference/null implementations.

use ktrace_core::TraceLogger;
use ktrace_format::{MajorId, MinorId};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pluggable event-logging scheme.
///
/// All experiment harnesses log through this trait so the only variable is
/// the scheme itself.
pub trait EventSink: Send + Sync {
    /// Logs one event from logical CPU `cpu`. Returns true if recorded.
    fn log(&self, cpu: usize, major: MajorId, minor: MinorId, payload: &[u64]) -> bool;

    /// Events recorded so far.
    fn events_logged(&self) -> u64;

    /// Human-readable scheme name for result tables.
    fn name(&self) -> &'static str;
}

/// The paper's lockless per-CPU scheme, adapted to the sink trait.
pub struct LocklessSink {
    logger: TraceLogger,
}

impl LocklessSink {
    /// Wraps a core logger (usually in flight-recorder mode so long
    /// benchmarks never block on a consumer).
    pub fn new(logger: TraceLogger) -> LocklessSink {
        LocklessSink { logger }
    }

    /// The wrapped logger.
    pub fn logger(&self) -> &TraceLogger {
        &self.logger
    }
}

impl EventSink for LocklessSink {
    #[inline]
    fn log(&self, cpu: usize, major: MajorId, minor: MinorId, payload: &[u64]) -> bool {
        self.logger.log(cpu, major, minor, payload)
    }

    fn events_logged(&self) -> u64 {
        self.logger.telemetry().snapshot().events_logged()
    }

    fn name(&self) -> &'static str {
        "lockless-percpu"
    }
}

/// Discards events after counting them: the harness-overhead floor.
#[derive(Default)]
pub struct NullSink {
    events: AtomicU64,
}

impl NullSink {
    /// A fresh null sink.
    pub fn new() -> NullSink {
        NullSink::default()
    }
}

impl EventSink for NullSink {
    #[inline]
    fn log(&self, _cpu: usize, _major: MajorId, _minor: MinorId, payload: &[u64]) -> bool {
        // Touch the payload so the compiler can't delete the caller's setup.
        std::hint::black_box(payload);
        self.events.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn events_logged(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        "null"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_clock::SyncClock;
    use ktrace_core::TraceConfig;
    use std::sync::Arc;

    #[test]
    fn lockless_sink_counts_through_logger() {
        let logger = TraceLogger::builder()
            .geometry(TraceConfig::small().flight_recorder())
            .clock(Arc::new(SyncClock::new()))
            .ncpus(2)
            .build()
            .unwrap();
        let sink = LocklessSink::new(logger);
        assert!(sink.log(0, MajorId::TEST, 1, &[1, 2]));
        assert!(sink.log(1, MajorId::TEST, 2, &[]));
        assert_eq!(sink.events_logged(), 2);
        assert_eq!(sink.name(), "lockless-percpu");
    }

    #[test]
    fn null_sink_counts() {
        let sink = NullSink::new();
        for i in 0..10 {
            assert!(sink.log(0, MajorId::TEST, i, &[i as u64]));
        }
        assert_eq!(sink.events_logged(), 10);
    }
}
