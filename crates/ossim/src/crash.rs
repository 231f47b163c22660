//! Crash injection: kill a simulated CPU mid-reservation.
//!
//! §3.1 allows that "a logging process could be killed in the middle of
//! writing an event" — the reservation is claimed but the words are never
//! written, so the buffer's cumulative commit count never reaches its
//! expected value and the consumer flags it garbled. §4.2's flight recorder
//! is exactly the tool that must cope: after a crash, `dump_last` walks the
//! ring and reports the torn buffer instead of trusting it.
//!
//! [`CrashTracer`] wraps [`KTracer`] and arms a countdown on one victim CPU:
//! after `after_events` successful logs, the next log attempt on that CPU
//! instead *abandons* a reservation of `torn_words` words (the dying store
//! never lands) and marks the CPU crashed — every later log from it
//! disappears, exactly as if the OS thread had been killed.

use crate::tracer::{KTracer, TraceHandle, Tracer};
use ktrace_core::{CpuHandle, TraceLogger};
use ktrace_format::{Event, MajorId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// When and where a simulated CPU dies.
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    /// The victim CPU.
    pub cpu: usize,
    /// Successful log calls on the victim before it dies.
    pub after_events: u64,
    /// Size of the reservation torn open by the dying store (words,
    /// including the event header).
    pub torn_words: usize,
}

impl CrashPlan {
    /// A plan killing `cpu` after `after_events` logged events, tearing a
    /// 4-word reservation (a typical small event).
    pub fn new(cpu: usize, after_events: u64) -> CrashPlan {
        CrashPlan {
            cpu,
            after_events,
            torn_words: 4,
        }
    }
}

/// Sentinel for "no tear recorded yet" in [`CrashTracer::torn_at`].
const NO_TEAR: u64 = u64::MAX;

/// A tracing backend that kills one simulated CPU mid-reservation.
pub struct CrashTracer {
    inner: KTracer,
    plan: CrashPlan,
    remaining: Arc<AtomicU64>,
    crashed: Arc<AtomicBool>,
    torn_at: Arc<AtomicU64>,
}

impl CrashTracer {
    /// Wraps a logger with a crash plan armed.
    pub fn new(logger: TraceLogger, plan: CrashPlan) -> CrashTracer {
        CrashTracer {
            inner: KTracer::new(logger),
            plan: CrashPlan {
                torn_words: plan.torn_words.max(1),
                ..plan
            },
            remaining: Arc::new(AtomicU64::new(plan.after_events)),
            crashed: Arc::new(AtomicBool::new(false)),
            torn_at: Arc::new(AtomicU64::new(NO_TEAR)),
        }
    }

    /// The wrapped logger, for draining/analysis after a run.
    pub fn logger(&self) -> &TraceLogger {
        self.inner.logger()
    }

    /// The armed plan.
    pub fn plan(&self) -> CrashPlan {
        self.plan
    }

    /// True once the victim CPU has died.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Unwrapped word index of the abandoned reservation, once the crash
    /// has fired and the reservation succeeded.
    pub fn torn_at(&self) -> Option<u64> {
        match self.torn_at.load(Ordering::Acquire) {
            NO_TEAR => None,
            at => Some(at),
        }
    }
}

impl Tracer for CrashTracer {
    type Handle = CrashHandle;

    fn handle(&self, cpu: usize) -> CrashHandle {
        CrashHandle {
            inner: self.inner.handle(cpu),
            victim: cpu == self.plan.cpu,
            torn_words: self.plan.torn_words,
            remaining: self.remaining.clone(),
            crashed: self.crashed.clone(),
            torn_at: self.torn_at.clone(),
        }
    }
}

/// Handle of [`CrashTracer`]: passes through until the countdown expires,
/// then tears one reservation and goes silent.
#[derive(Clone)]
pub struct CrashHandle {
    inner: CpuHandle,
    victim: bool,
    torn_words: usize,
    remaining: Arc<AtomicU64>,
    crashed: Arc<AtomicBool>,
    torn_at: Arc<AtomicU64>,
}

impl TraceHandle for CrashHandle {
    fn log<P: AsRef<[u64]>>(&self, e: Event<P>) {
        if self.victim {
            if self.crashed.load(Ordering::Acquire) {
                return; // dead CPUs log nothing
            }
            let countdown = self
                .remaining
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1));
            // `Err` means the budget is spent: this log attempt is the one
            // that dies inside its reservation.
            if countdown.is_err() {
                if !self.crashed.swap(true, Ordering::AcqRel) {
                    if let Some(at) = self.inner.fault_abandon_reservation(self.torn_words) {
                        self.torn_at.store(at, Ordering::Release);
                    }
                }
                return;
            }
        }
        self.inner.log_event(&e);
    }

    fn enabled(&self, major: MajorId) -> bool {
        if self.victim && self.crashed.load(Ordering::Acquire) {
            return false;
        }
        self.inner.enabled(major)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_clock::SyncClock;
    use ktrace_core::reader::GarbleNote;
    use ktrace_core::TraceConfig;
    use std::sync::Arc;

    fn flight_logger(ncpus: usize) -> TraceLogger {
        let logger = TraceLogger::builder()
            .geometry(
                TraceConfig {
                    buffer_words: 4096,
                    buffers_per_cpu: 8,
                    ..TraceConfig::small()
                }
                .flight_recorder(),
            )
            .clock(Arc::new(SyncClock::new()))
            .ncpus(ncpus)
            .build()
            .unwrap();
        crate::events::register_all(&logger);
        logger
    }

    #[test]
    fn countdown_tears_exactly_one_reservation_then_goes_silent() {
        let tracer = CrashTracer::new(flight_logger(1), CrashPlan::new(0, 5));
        let h = tracer.handle(0);
        for i in 0..20u64 {
            h.log(crate::events::user::app_tick(i, 0));
        }
        assert!(tracer.crashed());
        let at = tracer.torn_at().expect("tear landed");
        // Exactly 5 events made it out; the rest died with the CPU.
        assert_eq!(tracer.logger().telemetry().snapshot().events_logged(), 5);
        assert!(!h.enabled(MajorId::USER), "dead CPUs are disabled");

        let dump = tracer.logger().dump_last(64, None);
        assert!(!dump.clean(), "the tear must be visible");
        // Garble notes carry buffer-relative offsets; `at` is unwrapped.
        let rel = (at % tracer.logger().config().buffer_words as u64) as usize;
        let offsets: Vec<usize> = dump
            .notes
            .iter()
            .filter_map(|(_, _, n)| match n {
                GarbleNote::ZeroHeader { offset } => Some(*offset),
                _ => None,
            })
            .collect();
        assert!(
            offsets.contains(&rel),
            "tear at {rel}, notes at {offsets:?}"
        );
    }
}
