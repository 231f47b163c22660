//! Lock order, checked from the trace: a Goodlock graph over lock
//! instances with gate locks (Havelund, SPIN 2000).
//!
//! The paper found its deadlock by post-processing a trace (§4.2, §4.6).
//! This pass is one fold over the stream's `LOCK` events in time order:
//! each thread's held set comes from the [`LocksetTracker`], and every
//! `ACQUIRED` of lock `b` while holding `a` adds the edge `a → b`, labelled
//! with the thread and the whole set it held (its *gate* locks). A cycle
//! `a₁ → a₂ → … → a₁` whose edges come from distinct threads with pairwise
//! disjoint held sets is a potential deadlock: the threads could each hold
//! their edge's source and wait for its target. A common held lock (a gate)
//! serialises the edges, and one thread cannot wait for itself, so neither
//! is reported.
//!
//! Nodes are lock *instances* (the traced lock ids), so stripes of one lock
//! class taken in a consistent order are not a cycle. The pass finds a
//! deadlock the run could have hit even if it did not hang;
//! `ktrace_analysis::find_deadlock` finds only the wait-for cycle at the end
//! of a trace that did.

use crate::lockset::LocksetTracker;
use crate::report::{Report, ViolationKind};
use ktrace_core::RawEvent;
use ktrace_events::decode::{lock_events, LockEv};
use ktrace_io::{IoError, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// How one thread took an edge's target: the thread, and every lock it
/// held at that moment (the edge's source and its gate locks), ascending.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EdgeLabel {
    /// The acquiring thread.
    pub tid: u64,
    /// The locks it held, ascending.
    pub held: Vec<u64>,
}

/// One edge of a reported cycle: `tid` took `to` while holding `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleEdge {
    /// The lock held.
    pub from: u64,
    /// The lock taken.
    pub to: u64,
    /// The thread that took it.
    pub tid: u64,
}

/// The outcome of a lock-order pass.
#[derive(Debug, Clone, Default)]
pub struct LockOrderAnalysis {
    /// Every held-while-acquiring order seen, `(held, taken)`, with the
    /// distinct ways it was taken.
    pub edges: BTreeMap<(u64, u64), BTreeSet<EdgeLabel>>,
    /// Each potential deadlock, once per cycle of locks, starting at its
    /// smallest lock id, with one feasible choice of thread per edge.
    pub cycles: Vec<Vec<CycleEdge>>,
    /// `ACQUIRED` events examined.
    pub acquisitions: usize,
}

impl LockOrderAnalysis {
    /// True when no cycle was found.
    pub fn is_clean(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Human-readable summary, one cycle per line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "checked {} acquisition(s), {} lock-order edge(s): {} cycle(s)",
            self.acquisitions,
            self.edges.len(),
            self.cycles.len()
        );
        for c in &self.cycles {
            let _ = writeln!(out, "  [lock-order-cycle] {}", describe(c));
        }
        out
    }

    /// Converts the cycles into a [`Report`] (exit-code machinery).
    pub fn to_report(&self) -> Report {
        let mut report = Report::new();
        report.events_checked = self.acquisitions;
        for c in &self.cycles {
            report.push(ViolationKind::LockOrderCycle, None, None, None, describe(c));
        }
        report
    }
}

fn describe(cycle: &[CycleEdge]) -> String {
    let mut text = format!("lock {:#x}", cycle[0].from);
    for e in cycle {
        text += &format!(" -> {:#x} (tid {:#x})", e.to, e.tid);
    }
    text
}

/// Runs the pass over `events` (any order; replayed in canonical
/// [`RawEvent::order_key`] order).
pub fn lock_order(events: &[RawEvent]) -> LockOrderAnalysis {
    let mut order: Vec<&RawEvent> = events.iter().collect();
    order.sort_by_key(|e| e.order_key());
    let mut locks = LocksetTracker::new();
    let mut analysis = LockOrderAnalysis::default();
    for (_, ev) in lock_events(order) {
        match ev {
            LockEv::Acquired { lock, tid, .. } => {
                analysis.acquisitions += 1;
                if let Some(held) = locks.held(tid).filter(|h| !h.is_empty()) {
                    let label = EdgeLabel {
                        tid,
                        held: held.iter().copied().collect(),
                    };
                    for &from in held.iter().filter(|&&h| h != lock) {
                        analysis
                            .edges
                            .entry((from, lock))
                            .or_default()
                            .insert(label.clone());
                    }
                }
                locks.acquired(tid, lock);
            }
            LockEv::Released { lock, tid, .. } => locks.released(tid, lock),
            LockEv::Request { .. } => {}
        }
    }
    analysis.cycles = cycles(&analysis.edges);
    analysis
}

/// Runs the pass over every event in a trace file.
pub fn lock_order_in_file(path: impl AsRef<Path>) -> Result<LockOrderAnalysis, IoError> {
    Ok(lock_order(&Trace::from_file(path)?.events))
}

/// Every simple cycle of locks that has a feasible labelling, once each:
/// a cycle is searched from its smallest lock only, through larger locks
/// that can still reach it back. A graph with no cycle costs O(V + E); a
/// strongly connected one can still hold exponentially many simple cycles,
/// and each is visited.
fn cycles(edges: &BTreeMap<(u64, u64), BTreeSet<EdgeLabel>>) -> Vec<Vec<CycleEdge>> {
    let mut next: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut prev: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &(from, to) in edges.keys() {
        next.entry(from).or_default().push(to);
        prev.entry(to).or_default().push(from);
    }
    let core = cyclic_core(&next, &prev);
    let mut found = Vec::new();
    for &start in &core {
        // The larger locks that reach `start` through larger locks: only
        // they can close a cycle searched from it.
        let mut live = BTreeSet::new();
        let mut todo = vec![start];
        while let Some(at) = todo.pop() {
            for &from in prev.get(&at).into_iter().flatten() {
                if from > start && core.contains(&from) && live.insert(from) {
                    todo.push(from);
                }
            }
        }
        search(edges, &next, &live, &mut vec![start], &mut found);
    }
    found
}

/// The locks that can lie on a cycle: what is left after repeatedly
/// removing every lock with no edge in or no edge out.
fn cyclic_core(next: &BTreeMap<u64, Vec<u64>>, prev: &BTreeMap<u64, Vec<u64>>) -> BTreeSet<u64> {
    let degree = |map: &BTreeMap<u64, Vec<u64>>, lock| map.get(&lock).map_or(0, Vec::len);
    let mut core: BTreeSet<u64> = next.keys().chain(prev.keys()).copied().collect();
    // Lock → (edges in, edges out) from locks still in the core.
    let mut left: BTreeMap<u64, (usize, usize)> = core
        .iter()
        .map(|&l| (l, (degree(prev, l), degree(next, l))))
        .collect();
    let mut todo: Vec<u64> = left
        .iter()
        .filter(|(_, d)| d.0 == 0 || d.1 == 0)
        .map(|(&l, _)| l)
        .collect();
    while let Some(lock) = todo.pop() {
        if !core.remove(&lock) {
            continue;
        }
        for &to in next.get(&lock).into_iter().flatten() {
            if let Some(d) = left.get_mut(&to) {
                d.0 -= 1;
                if d.0 == 0 {
                    todo.push(to);
                }
            }
        }
        for &from in prev.get(&lock).into_iter().flatten() {
            if let Some(d) = left.get_mut(&from) {
                d.1 -= 1;
                if d.1 == 0 {
                    todo.push(from);
                }
            }
        }
    }
    core
}

/// Extends the lock path `path` (from its first lock) by every `live` lock
/// not on it yet, and checks each way back to the first lock.
fn search(
    edges: &BTreeMap<(u64, u64), BTreeSet<EdgeLabel>>,
    next: &BTreeMap<u64, Vec<u64>>,
    live: &BTreeSet<u64>,
    path: &mut Vec<u64>,
    found: &mut Vec<Vec<CycleEdge>>,
) {
    let (start, at) = (path[0], path[path.len() - 1]);
    for &to in next.get(&at).into_iter().flatten() {
        if to == start {
            let mut chosen = Vec::new();
            if label(edges, path, &mut chosen) {
                found.push(chosen.iter().map(|&(e, _)| e).collect());
            }
        } else if live.contains(&to) && !path.contains(&to) {
            path.push(to);
            search(edges, next, live, path, found);
            path.pop();
        }
    }
}

/// Picks one label per edge of the lock cycle `locks` (closing back to its
/// first lock) so that the threads are distinct and the held sets disjoint;
/// false if there is no such choice.
fn label<'a>(
    edges: &'a BTreeMap<(u64, u64), BTreeSet<EdgeLabel>>,
    locks: &[u64],
    chosen: &mut Vec<(CycleEdge, &'a EdgeLabel)>,
) -> bool {
    let i = chosen.len();
    if i == locks.len() {
        return true;
    }
    let (from, to) = (locks[i], locks[(i + 1) % locks.len()]);
    for l in &edges[&(from, to)] {
        let feasible = chosen
            .iter()
            .all(|(e, c)| e.tid != l.tid && !c.held.iter().any(|h| l.held.contains(h)));
        if feasible {
            chosen.push((
                CycleEdge {
                    from,
                    to,
                    tid: l.tid,
                },
                l,
            ));
            if label(edges, locks, chosen) {
                return true;
            }
            chosen.pop();
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_events::lock as lockev;
    use ktrace_format::MajorId;

    fn ev(time: u64, minor: u16, payload: &[u64]) -> RawEvent {
        RawEvent {
            cpu: 0,
            seq: 0,
            offset: 0,
            time,
            ts32: time as u32,
            major: MajorId::LOCK,
            minor,
            payload: payload.into(),
        }
    }

    /// `tid` takes `locks` in order and releases them in reverse, from `t`.
    fn nest(t: u64, tid: u64, locks: &[u64]) -> Vec<RawEvent> {
        let mut out = Vec::new();
        for (i, &l) in locks.iter().enumerate() {
            out.push(ev(t + i as u64, lockev::ACQUIRED, &[l, tid, 0, 0, 0]));
        }
        for (i, &l) in locks.iter().rev().enumerate() {
            out.push(ev(
                t + (locks.len() + i) as u64,
                lockev::RELEASED,
                &[l, tid, 0],
            ));
        }
        out
    }

    const A: u64 = 0xa0;
    const B: u64 = 0xb0;
    const G: u64 = 0x10;

    #[test]
    fn opposite_orders_from_two_threads_are_a_cycle() {
        let events = [nest(100, 1, &[A, B]), nest(200, 2, &[B, A])].concat();
        let r = lock_order(&events);
        assert_eq!(r.cycles.len(), 1, "{}", r.render());
        let cycle = &r.cycles[0];
        assert_eq!(
            cycle,
            &vec![
                CycleEdge {
                    from: A,
                    to: B,
                    tid: 1
                },
                CycleEdge {
                    from: B,
                    to: A,
                    tid: 2
                },
            ]
        );
        let report = r.to_report();
        assert_eq!(
            report.exit_code(),
            ViolationKind::LockOrderCycle.exit_code()
        );
        assert_eq!(report.exit_code(), 34);
        let text = r.render();
        assert!(
            text.contains("lock 0xa0 -> 0xb0 (tid 0x1) -> 0xa0 (tid 0x2)"),
            "{text}"
        );
    }

    #[test]
    fn a_common_gate_lock_suppresses_the_cycle() {
        let events = [nest(100, 1, &[G, A, B]), nest(200, 2, &[G, B, A])].concat();
        let r = lock_order(&events);
        assert!(r.is_clean(), "{}", r.render());
        assert!(r.edges.contains_key(&(A, B)) && r.edges.contains_key(&(B, A)));
    }

    #[test]
    fn one_thread_taking_both_orders_is_no_cycle() {
        let events = [nest(100, 1, &[A, B]), nest(200, 1, &[B, A])].concat();
        let r = lock_order(&events);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.edges.len(), 2);
    }

    #[test]
    fn striped_instances_in_one_order_are_no_cycle() {
        // Four stripes of one lock class, always taken in ascending order,
        // by several threads: one class, but no instance cycle.
        let s = [0x400, 0x401, 0x402, 0x403];
        let events = [
            nest(100, 1, &[s[0], s[1]]),
            nest(200, 2, &[s[1], s[2]]),
            nest(300, 3, &[s[2], s[3]]),
            nest(400, 4, &[s[0], s[3]]),
            nest(500, 5, &[s[0], s[1], s[2], s[3]]),
        ]
        .concat();
        let r = lock_order(&events);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.acquisitions, 12);
    }

    #[test]
    fn forty_stripes_nested_in_order_are_checked_quickly() {
        // Every stripe taken under every smaller one: 780 edges i → j for
        // i < j and no cycle, which path enumeration alone takes 2^38 steps
        // to confirm.
        let stripes: Vec<u64> = (0x400..0x428).collect();
        let events = [nest(100, 1, &stripes), nest(1_000, 2, &stripes)].concat();
        let started = std::time::Instant::now();
        let r = lock_order(&events);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.edges.len(), 40 * 39 / 2);
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn cycles_in_separate_components_are_each_found() {
        const C: u64 = 0xc0;
        const D: u64 = 0xd0;
        let events = [
            nest(100, 1, &[A, B]),
            nest(200, 2, &[B, A]),
            nest(300, 1, &[B, C]),
            nest(400, 3, &[C, D]),
            nest(500, 4, &[D, C]),
        ]
        .concat();
        let r = lock_order(&events);
        let pairs: Vec<(u64, u64)> = r.cycles.iter().map(|c| (c[0].from, c[0].to)).collect();
        assert_eq!(pairs, vec![(A, B), (C, D)], "{}", r.render());
    }

    #[test]
    fn a_three_lock_cycle_needs_three_threads() {
        const C: u64 = 0xc0;
        let events = [
            nest(100, 1, &[A, B]),
            nest(200, 2, &[B, C]),
            nest(300, 3, &[C, A]),
        ]
        .concat();
        assert_eq!(lock_order(&events).cycles.len(), 1);
        let same = [
            nest(100, 1, &[A, B]),
            nest(200, 2, &[B, C]),
            nest(300, 1, &[C, A]),
        ]
        .concat();
        assert!(lock_order(&same).is_clean());
    }
}
