//! Typed decode of the shared event vocabulary.
//!
//! Every analysis used to re-implement the same `match (major, minor)` +
//! `payload.len()` dance over [`RawEvent`]s; this module is the single
//! record-walking helper they share instead. Decoders are strict about the
//! declared schema arity (see the [`ktrace_event!`](crate::ktrace_event)
//! tables): an event whose payload is shorter than its declaration decodes
//! to `None`, exactly as the ad-hoc loops skipped it.

use crate::{lock, sched};
use ktrace_core::reader::RawEvent;
use ktrace_format::MajorId;

/// A decoded `LOCK` event (§4.6's REQUEST/ACQUIRED/RELEASED triple).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockEv {
    /// `[lock_id, tid, call_chain]` — the thread started waiting.
    Request {
        /// Lock identity.
        lock: u64,
        /// Requesting thread.
        tid: u64,
        /// Packed call chain (see [`crate::unpack_chain`]).
        chain: u64,
    },
    /// `[lock_id, tid, call_chain, spins, wait_ns]` — the wait ended.
    Acquired {
        /// Lock identity.
        lock: u64,
        /// Acquiring thread.
        tid: u64,
        /// Packed call chain.
        chain: u64,
        /// Spin-loop iterations while waiting.
        spins: u64,
        /// Wait time in nanoseconds.
        wait_ns: u64,
    },
    /// `[lock_id, tid, hold_ns]` — the hold ended.
    Released {
        /// Lock identity.
        lock: u64,
        /// Releasing thread.
        tid: u64,
        /// Hold time in nanoseconds.
        hold_ns: u64,
    },
}

/// Decodes one `LOCK` event, or `None` for other majors, unknown minors,
/// and under-length payloads.
pub fn lock_event(e: &RawEvent) -> Option<LockEv> {
    if e.major != MajorId::LOCK {
        return None;
    }
    let p = &e.payload;
    match e.minor {
        lock::REQUEST if p.len() >= 3 => Some(LockEv::Request {
            lock: p[0],
            tid: p[1],
            chain: p[2],
        }),
        lock::ACQUIRED if p.len() >= 5 => Some(LockEv::Acquired {
            lock: p[0],
            tid: p[1],
            chain: p[2],
            spins: p[3],
            wait_ns: p[4],
        }),
        lock::RELEASED if p.len() >= 3 => Some(LockEv::Released {
            lock: p[0],
            tid: p[1],
            hold_ns: p[2],
        }),
        _ => None,
    }
}

/// A decoded `SCHED` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEv {
    /// `[old_tid, new_tid, new_pid]`.
    CtxSwitch {
        /// Outgoing thread.
        old_tid: u64,
        /// Incoming thread.
        new_tid: u64,
        /// Incoming thread's process.
        new_pid: u64,
    },
    /// `[]` — the CPU went idle.
    IdleStart,
    /// `[idle_ns]` — the CPU left idle.
    IdleEnd {
        /// Length of the idle period in nanoseconds.
        idle_ns: u64,
    },
    /// `[tid, from_cpu, to_cpu]`.
    Migrate {
        /// Migrating thread.
        tid: u64,
        /// Source CPU.
        from_cpu: u64,
        /// Destination CPU.
        to_cpu: u64,
    },
    /// `[tid, pid]` — the thread became runnable.
    ThreadStart {
        /// New thread.
        tid: u64,
        /// Its process.
        pid: u64,
    },
    /// `[tid, pid]` — the thread finished.
    ThreadExit {
        /// Exiting thread.
        tid: u64,
        /// Its process.
        pid: u64,
    },
}

/// Decodes one `SCHED` event, or `None` for other majors, unknown minors,
/// and under-length payloads.
pub fn sched_event(e: &RawEvent) -> Option<SchedEv> {
    if e.major != MajorId::SCHED {
        return None;
    }
    let p = &e.payload;
    match e.minor {
        sched::CTX_SWITCH if p.len() >= 3 => Some(SchedEv::CtxSwitch {
            old_tid: p[0],
            new_tid: p[1],
            new_pid: p[2],
        }),
        sched::IDLE_START => Some(SchedEv::IdleStart),
        sched::IDLE_END if !p.is_empty() => Some(SchedEv::IdleEnd { idle_ns: p[0] }),
        sched::MIGRATE if p.len() >= 3 => Some(SchedEv::Migrate {
            tid: p[0],
            from_cpu: p[1],
            to_cpu: p[2],
        }),
        sched::THREAD_START if p.len() >= 2 => Some(SchedEv::ThreadStart {
            tid: p[0],
            pid: p[1],
        }),
        sched::THREAD_EXIT if p.len() >= 2 => Some(SchedEv::ThreadExit {
            tid: p[0],
            pid: p[1],
        }),
        _ => None,
    }
}

/// Walks `events`, yielding each alongside its decoded `LOCK` form; events
/// that are not well-formed lock events are skipped.
pub fn lock_events<'a, I>(events: I) -> impl Iterator<Item = (&'a RawEvent, LockEv)>
where
    I: IntoIterator<Item = &'a RawEvent>,
{
    events
        .into_iter()
        .filter_map(|e| lock_event(e).map(|d| (e, d)))
}

/// Walks `events`, yielding each alongside its decoded `SCHED` form; events
/// that are not well-formed scheduler events are skipped.
pub fn sched_events<'a, I>(events: I) -> impl Iterator<Item = (&'a RawEvent, SchedEv)>
where
    I: IntoIterator<Item = &'a RawEvent>,
{
    events
        .into_iter()
        .filter_map(|e| sched_event(e).map(|d| (e, d)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(major: MajorId, minor: u16, payload: &[u64]) -> RawEvent {
        RawEvent {
            cpu: 0,
            seq: 0,
            offset: 0,
            time: 1,
            ts32: 1,
            major,
            minor,
            payload: payload.into(),
        }
    }

    #[test]
    fn lock_triple_decodes() {
        assert_eq!(
            lock_event(&raw(MajorId::LOCK, lock::REQUEST, &[0xA, 7, 3])),
            Some(LockEv::Request {
                lock: 0xA,
                tid: 7,
                chain: 3
            })
        );
        assert_eq!(
            lock_event(&raw(MajorId::LOCK, lock::ACQUIRED, &[0xA, 7, 3, 5, 90])),
            Some(LockEv::Acquired {
                lock: 0xA,
                tid: 7,
                chain: 3,
                spins: 5,
                wait_ns: 90
            })
        );
        assert_eq!(
            lock_event(&raw(MajorId::LOCK, lock::RELEASED, &[0xA, 7, 40])),
            Some(LockEv::Released {
                lock: 0xA,
                tid: 7,
                hold_ns: 40
            })
        );
    }

    #[test]
    fn short_or_foreign_events_do_not_decode() {
        assert_eq!(
            lock_event(&raw(MajorId::LOCK, lock::ACQUIRED, &[1, 2])),
            None
        );
        assert_eq!(
            lock_event(&raw(MajorId::SCHED, lock::REQUEST, &[1, 2, 3])),
            None
        );
        assert_eq!(lock_event(&raw(MajorId::LOCK, 99, &[1, 2, 3])), None);
        assert_eq!(
            sched_event(&raw(MajorId::SCHED, sched::CTX_SWITCH, &[1])),
            None
        );
        assert_eq!(
            sched_event(&raw(MajorId::LOCK, sched::IDLE_START, &[])),
            None
        );
    }

    #[test]
    fn sched_vocabulary_decodes() {
        assert_eq!(
            sched_event(&raw(MajorId::SCHED, sched::CTX_SWITCH, &[1, 2, 9])),
            Some(SchedEv::CtxSwitch {
                old_tid: 1,
                new_tid: 2,
                new_pid: 9
            })
        );
        assert_eq!(
            sched_event(&raw(MajorId::SCHED, sched::IDLE_START, &[])),
            Some(SchedEv::IdleStart)
        );
        assert_eq!(
            sched_event(&raw(MajorId::SCHED, sched::THREAD_START, &[8, 4])),
            Some(SchedEv::ThreadStart { tid: 8, pid: 4 })
        );
    }

    #[test]
    fn walkers_skip_malformed() {
        let evs = vec![
            raw(MajorId::LOCK, lock::REQUEST, &[1, 2, 3]),
            raw(MajorId::LOCK, lock::ACQUIRED, &[1]), // short: skipped
            raw(MajorId::TEST, 1, &[]),
            raw(MajorId::LOCK, lock::RELEASED, &[1, 2, 3]),
        ];
        let decoded: Vec<LockEv> = lock_events(&evs).map(|(_, d)| d).collect();
        assert_eq!(decoded.len(), 2);
        assert!(matches!(decoded[0], LockEv::Request { .. }));
        assert!(matches!(decoded[1], LockEv::Released { .. }));
    }
}
