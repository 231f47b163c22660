//! The dynamic race detector: Eraser locksets refined by vector-clock
//! happens-before, driven entirely by the trace stream.
//!
//! The detector replays a merged event stream in time order and watches four
//! event families. The `LOCK` and `SCHED` ones are read through
//! [`ktrace_events::decode`], so an event shorter than its schema is skipped
//! here exactly as in `lockstat`, `lockorder` and `deadlock`:
//!
//! - `LOCK` `ACQUIRED`/`RELEASED` update each thread's held-lock set *and*
//!   carry happens-before edges (release publishes the thread's clock on
//!   the lock; acquire joins it).
//! - `SCHED` `CTX_SWITCH` (`[old_tid, new_tid, pid]`) orders the outgoing
//!   thread's work before the incoming thread's on that CPU.
//! - `SCHED` `THREAD_START` (`[tid, pid]`) orders a new thread after
//!   everything already retired on its starting CPU.
//! - `MEM` `ACCESS_READ`/`ACCESS_WRITE` (`[addr, tid]`) are the annotated
//!   shared accesses being checked.
//!
//! A finding is reported when an access violates the lockset discipline
//! (Shared-Modified with an empty candidate set) **or** is unordered with a
//! conflicting access under happens-before. Lock-disciplined streams satisfy
//! both checks, so the detector is silent on them.

use crate::lockset::{LocksetTracker, LocksetVerdict};
use crate::report::{Report, ViolationKind};
use crate::vclock::VectorClock;
use ktrace_core::RawEvent;
use ktrace_events::decode::{lock_event, sched_event, LockEv, SchedEv};
use ktrace_events::mem;
use ktrace_format::MajorId;
use ktrace_io::{IoError, Trace};
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// One shared access, locatable in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSite {
    /// Event timestamp (clock ticks).
    pub time: u64,
    /// Accessing thread.
    pub tid: u64,
    /// CPU the access was logged on.
    pub cpu: usize,
    /// True for a write.
    pub write: bool,
}

/// A detected race on one address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceFinding {
    /// The racing address.
    pub addr: u64,
    /// The earlier conflicting access.
    pub first: AccessSite,
    /// The access at which the race was detected.
    pub second: AccessSite,
    /// True when the Eraser candidate lockset was empty.
    pub lockset_empty: bool,
    /// True when the two accesses are concurrent under happens-before.
    pub unordered: bool,
}

impl RaceFinding {
    fn describe(&self) -> String {
        let kind = |s: &AccessSite| if s.write { "write" } else { "read" };
        format!(
            "addr {:#x}: {} by tid {:#x} (cpu{}, t={}) races {} by tid {:#x} (cpu{}, t={}){}{}",
            self.addr,
            kind(&self.first),
            self.first.tid,
            self.first.cpu,
            self.first.time,
            kind(&self.second),
            self.second.tid,
            self.second.cpu,
            self.second.time,
            if self.lockset_empty {
                "; no common lock"
            } else {
                ""
            },
            if self.unordered {
                "; unordered (happens-before)"
            } else {
                ""
            },
        )
    }
}

/// The outcome of a race-detection pass.
#[derive(Debug, Clone, Default)]
pub struct RaceAnalysis {
    /// One finding per racy address (first detection wins).
    pub findings: Vec<RaceFinding>,
    /// Annotated accesses examined.
    pub accesses: usize,
    /// Distinct annotated addresses seen.
    pub addrs: usize,
}

impl RaceAnalysis {
    /// True when no races were found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable summary, one finding per line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "checked {} access(es) on {} address(es): {} race(s)",
            self.accesses,
            self.addrs,
            self.findings.len()
        );
        for f in &self.findings {
            let _ = writeln!(out, "  [data-race] {}", f.describe());
        }
        out
    }

    /// Converts the findings into a [`Report`] (exit-code machinery).
    pub fn to_report(&self) -> Report {
        let mut report = Report::new();
        report.events_checked = self.accesses;
        for f in &self.findings {
            report.push(
                ViolationKind::DataRace,
                Some(f.second.cpu),
                None,
                None,
                f.describe(),
            );
        }
        report
    }
}

#[derive(Default)]
struct AddrHistory {
    last_write: Option<(AccessSite, VectorClock)>,
    reads_since_write: Vec<(AccessSite, VectorClock)>,
}

/// Runs the detector over `events` (any order; replayed in canonical
/// [`RawEvent::order_key`] order).
pub fn detect_races(events: &[RawEvent]) -> RaceAnalysis {
    let mut order: Vec<&RawEvent> = events.iter().collect();
    order.sort_by_key(|e| e.order_key());

    // A thread's clock always carries its own live epoch (`tick` on first
    // sight), so its accesses are unordered with everyone else's until a
    // sync edge publishes them.
    fn thread(map: &mut HashMap<u64, VectorClock>, tid: u64) -> &mut VectorClock {
        map.entry(tid).or_insert_with(|| {
            let mut c = VectorClock::new();
            c.tick(tid);
            c
        })
    }

    let mut locksets = LocksetTracker::new();
    let mut thread_vc: HashMap<u64, VectorClock> = HashMap::new();
    let mut lock_vc: HashMap<u64, VectorClock> = HashMap::new();
    let mut cpu_vc: HashMap<usize, VectorClock> = HashMap::new();
    let mut history: HashMap<u64, AddrHistory> = HashMap::new();
    let mut reported: HashSet<u64> = HashSet::new();
    let mut analysis = RaceAnalysis::default();

    for e in order {
        match (e.major, e.minor) {
            (MajorId::LOCK, _) => match lock_event(e) {
                Some(LockEv::Acquired { lock, tid, .. }) => {
                    locksets.acquired(tid, lock);
                    if let Some(lvc) = lock_vc.get(&lock) {
                        let lvc = lvc.clone();
                        thread(&mut thread_vc, tid).join(&lvc);
                    } else {
                        thread(&mut thread_vc, tid);
                    }
                }
                Some(LockEv::Released { lock, tid, .. }) => {
                    locksets.released(tid, lock);
                    let tvc = thread(&mut thread_vc, tid);
                    lock_vc.insert(lock, tvc.clone());
                    tvc.tick(tid);
                }
                _ => {}
            },
            (MajorId::SCHED, _) => match sched_event(e) {
                Some(SchedEv::CtxSwitch {
                    old_tid, new_tid, ..
                }) => {
                    // Publish the outgoing thread's work on the CPU clock,
                    // then advance its epoch: whatever it does after being
                    // rescheduled is NOT ordered before the incoming thread.
                    if let Some(old) = thread_vc.get_mut(&old_tid) {
                        let published = old.clone();
                        old.tick(old_tid);
                        cpu_vc.entry(e.cpu).or_default().join(&published);
                    }
                    let snapshot = cpu_vc.entry(e.cpu).or_default().clone();
                    thread(&mut thread_vc, new_tid).join(&snapshot);
                }
                Some(SchedEv::ThreadStart { tid, .. }) => {
                    if let Some(cvc) = cpu_vc.get(&e.cpu) {
                        let cvc = cvc.clone();
                        thread(&mut thread_vc, tid).join(&cvc);
                    }
                }
                _ => {}
            },
            (MajorId::MEM, mem::ACCESS_READ | mem::ACCESS_WRITE) if e.payload.len() >= 2 => {
                let (addr, tid) = (e.payload[0], e.payload[1]);
                let is_write = e.minor == mem::ACCESS_WRITE;
                let site = AccessSite {
                    time: e.time,
                    tid,
                    cpu: e.cpu,
                    write: is_write,
                };
                analysis.accesses += 1;

                let verdict = locksets.access(addr, tid, is_write);
                let my_vc = thread(&mut thread_vc, tid).clone();
                let hist = history.entry(addr).or_default();

                // A conflicting prior access that is not ordered before us.
                let mut conflict: Option<AccessSite> = None;
                if let Some((wsite, wvc)) = &hist.last_write {
                    if wsite.tid != tid && !wvc.le(&my_vc) {
                        conflict = Some(*wsite);
                    }
                }
                if is_write && conflict.is_none() {
                    conflict = hist
                        .reads_since_write
                        .iter()
                        .find(|(rsite, rvc)| rsite.tid != tid && !rvc.le(&my_vc))
                        .map(|(rsite, _)| *rsite);
                }
                let unordered = conflict.is_some();
                let lockset_empty = verdict == LocksetVerdict::Violation;

                if (unordered || lockset_empty) && reported.insert(addr) {
                    // Prefer the concrete unordered access; fall back to the
                    // most recent conflicting site for lockset-only findings.
                    let first = conflict
                        .or_else(|| {
                            hist.last_write
                                .as_ref()
                                .map(|(s, _)| *s)
                                .filter(|s| s.tid != tid)
                        })
                        .or_else(|| {
                            hist.reads_since_write
                                .iter()
                                .rev()
                                .find(|(s, _)| s.tid != tid)
                                .map(|(s, _)| *s)
                        })
                        .unwrap_or(site);
                    analysis.findings.push(RaceFinding {
                        addr,
                        first,
                        second: site,
                        lockset_empty,
                        unordered,
                    });
                }

                if is_write {
                    hist.last_write = Some((site, my_vc));
                    hist.reads_since_write.clear();
                } else {
                    hist.reads_since_write.push((site, my_vc));
                }
            }
            _ => {}
        }
    }

    analysis.addrs = history.len();
    analysis
}

/// Runs the detector over every event in a trace file, in merged time order.
pub fn races_in_file(path: impl AsRef<Path>) -> Result<RaceAnalysis, IoError> {
    Ok(detect_races(&Trace::from_file(path)?.events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_events::{lock as lockev, sched};

    fn ev(cpu: usize, time: u64, major: MajorId, minor: u16, payload: &[u64]) -> RawEvent {
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

    fn acq(cpu: usize, t: u64, lock: u64, tid: u64) -> RawEvent {
        ev(
            cpu,
            t,
            MajorId::LOCK,
            lockev::ACQUIRED,
            &[lock, tid, 0, 0, 0],
        )
    }
    fn rel(cpu: usize, t: u64, lock: u64, tid: u64) -> RawEvent {
        ev(cpu, t, MajorId::LOCK, lockev::RELEASED, &[lock, tid, 0])
    }
    fn read(cpu: usize, t: u64, addr: u64, tid: u64) -> RawEvent {
        ev(cpu, t, MajorId::MEM, mem::ACCESS_READ, &[addr, tid])
    }
    fn write(cpu: usize, t: u64, addr: u64, tid: u64) -> RawEvent {
        ev(cpu, t, MajorId::MEM, mem::ACCESS_WRITE, &[addr, tid])
    }

    const A: u64 = 0x5000_0000;

    #[test]
    fn unprotected_concurrent_writes_race() {
        let events = vec![write(0, 10, A, 1), write(1, 20, A, 2), write(0, 30, A, 1)];
        let r = detect_races(&events);
        assert_eq!(r.findings.len(), 1, "{}", r.render());
        let f = &r.findings[0];
        assert_eq!(f.addr, A);
        assert!(f.lockset_empty && f.unordered);
        assert_eq!((f.first.tid, f.second.tid), (1, 2));
        assert!(r.to_report().exit_code() == ViolationKind::DataRace.exit_code());
    }

    #[test]
    fn lock_protected_writes_are_silent() {
        let l = 0x400;
        let events = vec![
            acq(0, 10, l, 1),
            read(0, 11, A, 1),
            write(0, 12, A, 1),
            rel(0, 13, l, 1),
            acq(1, 20, l, 2),
            read(1, 21, A, 2),
            write(1, 22, A, 2),
            rel(1, 23, l, 2),
        ];
        let r = detect_races(&events);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.accesses, 4);
        assert_eq!(r.addrs, 1);
    }

    #[test]
    fn read_write_race_detected() {
        let events = vec![read(0, 10, A, 1), write(1, 20, A, 2)];
        let r = detect_races(&events);
        assert_eq!(r.findings.len(), 1, "{}", r.render());
        assert!(r.findings[0].second.write);
        assert!(!r.findings[0].first.write);
    }

    #[test]
    fn an_unordered_read_is_reported_before_the_lockset_empties() {
        // Thread 2's first touch is a read: Eraser's state is only Shared, so
        // the lockset has nothing to say yet, but the read is unordered with
        // thread 1's write. That access is the address's one finding; the
        // write that follows would break the lockset too and adds nothing.
        let events = vec![write(0, 10, A, 1), read(1, 20, A, 2), write(1, 30, A, 2)];
        let r = detect_races(&events);
        assert_eq!(r.findings.len(), 1, "{}", r.render());
        let f = &r.findings[0];
        assert!(f.unordered && !f.lockset_empty, "{}", r.render());
        assert_eq!((f.first.tid, f.first.time), (1, 10));
        assert_eq!(
            (f.second.tid, f.second.time, f.second.write),
            (2, 20, false)
        );
    }

    #[test]
    fn read_only_sharing_is_silent() {
        let events = vec![read(0, 10, A, 1), read(1, 20, A, 2), read(0, 30, A, 3)];
        let r = detect_races(&events);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn context_switch_orders_threads_on_one_cpu() {
        // Same CPU: t1 writes, is switched out, t2 writes. The switch edge
        // orders the accesses, but no common lock protects the address —
        // Eraser still (correctly) reports the discipline violation.
        let events = vec![
            write(0, 10, A, 1),
            ev(0, 15, MajorId::SCHED, sched::CTX_SWITCH, &[1, 2, 99]),
            write(0, 20, A, 2),
        ];
        let r = detect_races(&events);
        assert_eq!(r.findings.len(), 1, "{}", r.render());
        let f = &r.findings[0];
        assert!(f.lockset_empty);
        assert!(!f.unordered, "switch edge must order the accesses");
    }

    #[test]
    fn distinct_locks_still_race() {
        let events = vec![
            acq(0, 10, 0x400, 1),
            write(0, 11, A, 1),
            rel(0, 12, 0x400, 1),
            acq(1, 20, 0x401, 2),
            write(1, 21, A, 2),
            rel(1, 22, 0x401, 2),
        ];
        let r = detect_races(&events);
        assert_eq!(r.findings.len(), 1, "{}", r.render());
        assert!(r.findings[0].lockset_empty);
        assert!(r.findings[0].unordered);
    }

    #[test]
    fn one_finding_per_address() {
        let mut events = Vec::new();
        for i in 0..10 {
            events.push(write(0, 10 + 2 * i, A, 1));
            events.push(write(1, 11 + 2 * i, A, 2));
        }
        let r = detect_races(&events);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.accesses, 20);
    }
}
