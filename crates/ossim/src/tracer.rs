//! The tracing seam of the simulator.
//!
//! [`Tracer`] abstracts "how the OS logs events" so a whole machine can be
//! monomorphized against the real lockless logger ([`KTracer`]), or against
//! [`NoTracer`], whose log calls are empty inlined bodies — the compiled-out
//! configuration of the paper's goal 6 and the baseline of Fig. 3.

use ktrace_core::{CpuHandle, TraceLogger};
use ktrace_format::{Event, MajorId};

/// Per-CPU logging handle used inside the simulator's hot loops.
///
/// It logs only [`Event`]s, which only the emitters `ktrace_event!`
/// generates can build, so a raw `(major, minor, payload)` call does not
/// compile:
///
/// ```compile_fail,E0061
/// use ktrace_format::MajorId;
/// use ktrace_ossim::events::sched;
/// use ktrace_ossim::tracer::{NoHandle, TraceHandle};
/// let (major, minor) = (MajorId::SCHED, sched::CTX_SWITCH);
/// NoHandle.log(major, minor, &[1, 2, 3]);
/// ```
pub trait TraceHandle: Clone + Send + 'static {
    /// Logs one declared event from the bound CPU.
    fn log<P: AsRef<[u64]>>(&self, e: Event<P>);

    /// The mask check, exposed so callers can skip argument marshalling.
    fn enabled(&self, major: MajorId) -> bool;
}

/// A machine-wide tracing backend.
pub trait Tracer: Send + Sync + 'static {
    /// The per-CPU handle type.
    type Handle: TraceHandle;

    /// Creates the handle for `cpu`.
    fn handle(&self, cpu: usize) -> Self::Handle;
}

/// The real backend: the paper's lockless per-CPU tracing infrastructure.
pub struct KTracer {
    logger: TraceLogger,
}

impl KTracer {
    /// Wraps a logger (whose CPU count must cover the machine's).
    pub fn new(logger: TraceLogger) -> KTracer {
        KTracer { logger }
    }

    /// The wrapped logger, for draining/analysis after a run.
    pub fn logger(&self) -> &TraceLogger {
        &self.logger
    }
}

impl Tracer for KTracer {
    type Handle = CpuHandle;

    fn handle(&self, cpu: usize) -> CpuHandle {
        self.logger
            .handle(cpu)
            .expect("machine cpu count exceeds logger cpu count")
    }
}

impl TraceHandle for CpuHandle {
    #[inline]
    fn log<P: AsRef<[u64]>>(&self, e: Event<P>) {
        self.log_event(&e);
    }

    #[inline]
    fn enabled(&self, major: MajorId) -> bool {
        self.mask().is_enabled(major)
    }
}

/// The compiled-out backend: every trace statement vanishes.
pub struct NoTracer;

/// Handle of [`NoTracer`]: all methods inline to nothing.
#[derive(Clone, Copy)]
pub struct NoHandle;

impl Tracer for NoTracer {
    type Handle = NoHandle;

    fn handle(&self, _cpu: usize) -> NoHandle {
        NoHandle
    }
}

impl TraceHandle for NoHandle {
    #[inline(always)]
    fn log<P: AsRef<[u64]>>(&self, _e: Event<P>) {}

    #[inline(always)]
    fn enabled(&self, _major: MajorId) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::sched;
    use ktrace_clock::SyncClock;
    use ktrace_core::TraceConfig;
    use std::sync::Arc;

    #[test]
    fn ktracer_logs_through_core() {
        let logger = TraceLogger::builder()
            .geometry(TraceConfig::small().flight_recorder())
            .clock(Arc::new(SyncClock::new()))
            .ncpus(2)
            .build()
            .unwrap();
        let tracer = KTracer::new(logger);
        let h = tracer.handle(1);
        assert!(h.enabled(MajorId::SCHED));
        h.log(sched::ctx_switch(1, 2, 3));
        assert_eq!(tracer.logger().telemetry().snapshot().events_logged(), 1);
        let e = &tracer.logger().dump_last(8, Some(&[MajorId::SCHED])).events[0];
        assert_eq!(
            (e.minor, &e.payload[..]),
            (sched::CTX_SWITCH, &[1, 2, 3][..])
        );
    }

    #[test]
    fn notracer_is_inert() {
        let h = NoTracer.handle(0);
        assert!(!h.enabled(MajorId::SCHED));
        h.log(sched::ctx_switch(1, 2, 3)); // must be a no-op
    }
}
