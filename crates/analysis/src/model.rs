//! The [`Trace`] model all tools consume, and the process maps tools
//! recover from it.
//!
//! `Trace` itself is [`ktrace_io::Trace`] — the one in-memory model every
//! read path loads into — re-exported here because the tools are where most
//! callers meet it.

use ktrace_events::decode::{sched_events, SchedEv};
use ktrace_format::MajorId;
pub use ktrace_io::Trace;
use std::collections::HashMap;

/// A map from thread ID to process ID for the threads `wanted` admits,
/// recovered from scheduler events wherever in the trace they lie; a thread
/// seen under several pids keeps the last.
pub fn tid_to_pid(trace: &Trace, wanted: impl Fn(u64) -> bool) -> HashMap<u64, u64> {
    let mut map = HashMap::new();
    for (_, ev) in sched_events(trace.of_major(MajorId::SCHED)) {
        let (tid, pid) = match ev {
            SchedEv::ThreadStart { tid, pid } | SchedEv::ThreadExit { tid, pid } => (tid, pid),
            SchedEv::CtxSwitch {
                new_tid, new_pid, ..
            } => (new_tid, new_pid),
            _ => continue,
        };
        if wanted(tid) {
            map.insert(tid, pid);
        }
    }
    map
}

/// A map from pid to process name, recovered from PROC_CREATE events.
pub fn pid_names(trace: &Trace) -> HashMap<u64, String> {
    let mut map = HashMap::new();
    map.insert(0, "kernel".to_string());
    map.insert(1, "baseServers".to_string());
    for e in trace.of_major(MajorId::PROC) {
        if e.minor != ktrace_events::proc::CREATE {
            continue;
        }
        let Some(desc) = trace.registry.lookup(e.major, e.minor) else {
            continue;
        };
        let Ok(values) = desc.spec.decode(&e.payload) else {
            continue;
        };
        if values.len() >= 3 {
            map.insert(values[0].as_int(), values[2].to_string());
        }
    }
    map
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Synthetic-event helpers shared by tool tests.

    use super::*;
    use ktrace_core::reader::RawEvent;
    use ktrace_format::MinorId;

    /// Builds one event with explicit fields.
    pub fn ev(cpu: usize, time: u64, major: MajorId, minor: MinorId, payload: &[u64]) -> RawEvent {
        RawEvent {
            cpu,
            seq: 0,
            offset: 0,
            time,
            ts32: time as u32,
            major,
            minor,
            payload: payload.into(),
        }
    }

    /// A trace from synthetic events with the builtin + OS registry.
    pub fn trace(events: Vec<RawEvent>) -> Trace {
        use ktrace_clock::SyncClock;
        use ktrace_core::{TraceConfig, TraceLogger};
        use std::sync::Arc;
        let logger = TraceLogger::builder()
            .geometry(TraceConfig::small())
            .clock(Arc::new(SyncClock::new()))
            .ncpus(1)
            .build()
            .unwrap();
        ktrace_events::register_all(&logger);
        Trace::new(events, logger.registry(), 1_000_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{ev, trace};
    use super::*;
    use ktrace_events::{proc as procev, sched};
    use ktrace_format::pack::WordPacker;

    #[test]
    fn tid_to_pid_from_sched_events() {
        let t = trace(vec![
            ev(0, 1, MajorId::SCHED, sched::THREAD_START, &[0x100, 7]),
            ev(0, 2, MajorId::SCHED, sched::CTX_SWITCH, &[0, 0x200, 9]),
        ]);
        let map = tid_to_pid(&t, |_| true);
        assert_eq!(
            tid_to_pid(&t, |tid| tid == 0x200),
            HashMap::from([(0x200, 9)])
        );
        assert_eq!(map[&0x100], 7);
        assert_eq!(map[&0x200], 9);
    }

    #[test]
    fn pid_names_decoded_from_create_events() {
        let mut p = WordPacker::new();
        p.push(6, 64).push(2, 64).push_str("/shellServer");
        let t = trace(vec![ev(0, 1, MajorId::PROC, procev::CREATE, &p.finish())]);
        let names = pid_names(&t);
        assert_eq!(names[&6], "/shellServer");
        assert_eq!(names[&0], "kernel");
        assert_eq!(names[&1], "baseServers");
    }
}
