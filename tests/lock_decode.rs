//! One arity rule for `LOCK` events across every lock tool.
//!
//! `lockstat`, `lockorder`, `deadlock` and the race detector all read lock
//! events through `ktrace_events::decode`, so an `ACQUIRED` shorter than its
//! five-word schema is an acquisition for none of them. The trace below is
//! built so that each tool's answer would change if it counted the short
//! event: a lock-order edge M → L, a second L acquisition, a T1 ↔ T2
//! deadlock cycle through L, and a happens-before edge that would hide the
//! race on X.

use ktrace::analysis::{find_deadlock, LockStats};
use ktrace::core::RawEvent;
use ktrace::events::{lock as lockev, mem};
use ktrace::prelude::*;
use ktrace::verify::{detect_races, lock_order};

const L: u64 = 0xa;
const M: u64 = 0xb;
const N: u64 = 0xc;
const X: u64 = 0x5000;
const T1: u64 = 1;
const T2: u64 = 2;

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

fn acquired(cpu: usize, time: u64, lock: u64, tid: u64) -> RawEvent {
    ev(
        cpu,
        time,
        MajorId::LOCK,
        lockev::ACQUIRED,
        &[lock, tid, 0, 0, 0],
    )
}

#[test]
fn a_short_acquired_is_an_acquisition_for_no_tool() {
    let events = vec![
        // T2 writes X under L and releases it.
        acquired(0, 10, L, T2),
        ev(0, 20, MajorId::MEM, mem::ACCESS_WRITE, &[X, T2]),
        ev(0, 30, MajorId::LOCK, lockev::RELEASED, &[L, T2, 20]),
        // T1 holds M, then logs a two-word ACQUIRED of L and writes X.
        acquired(1, 40, M, T1),
        ev(1, 50, MajorId::LOCK, lockev::ACQUIRED, &[L, T1]),
        ev(1, 60, MajorId::MEM, mem::ACCESS_WRITE, &[X, T1]),
        // T2 holds N; T1 waits for N and T2 waits for L.
        acquired(0, 65, N, T2),
        ev(1, 80, MajorId::LOCK, lockev::REQUEST, &[N, T1, 0]),
        ev(0, 90, MajorId::LOCK, lockev::REQUEST, &[L, T2, 0]),
    ];

    let order = lock_order(&events);
    assert_eq!(order.acquisitions, 3, "the short ACQUIRED is not examined");
    assert!(order.edges.is_empty(), "no M -> L edge: {:?}", order.edges);

    let trace = Trace::new(events.clone(), EventRegistry::with_builtin(), 1_000_000_000);
    let l_acquisitions: u64 = LockStats::compute(&trace)
        .rows
        .iter()
        .filter(|r| r.lock_id == L)
        .map(|r| r.acquisitions)
        .sum();
    assert_eq!(l_acquisitions, 1, "only T2's acquisition of L");
    assert!(
        find_deadlock(&trace).is_none(),
        "L is free, so T2's wait closes no cycle"
    );

    let races = detect_races(&events);
    assert_eq!(races.findings.len(), 1, "{:?}", races.findings);
    let race = &races.findings[0];
    assert_eq!(race.addr, X);
    assert!(race.unordered, "no acquisition of L orders T1 after T2");
    assert!(race.lockset_empty, "T1 wrote X holding only M");
}
