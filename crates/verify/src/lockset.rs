//! Eraser-style lockset tracking (Savage et al., SOSP '97) driven by the
//! trace stream's LOCK events.
//!
//! For every annotated shared address the tracker maintains the classic
//! four-state machine — Virgin → Exclusive → Shared → Shared-Modified — and
//! a candidate lockset `C(v)`: the locks held on *every* access so far
//! (after leaving the first-thread Exclusive state). An empty `C(v)` at a
//! Shared-Modified access means no single lock consistently protects the
//! location.

use std::collections::{BTreeSet, HashMap};

/// Per-address protection state, per the Eraser state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrState {
    /// Only ever touched by its first thread.
    Exclusive {
        /// The owning (first-accessor) thread.
        tid: u64,
    },
    /// Read by multiple threads, never written after sharing began.
    Shared,
    /// Written by one thread while shared with others — the state in which
    /// an empty candidate lockset is a race.
    SharedModified,
}

/// What the tracker concluded about one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocksetVerdict {
    /// The access is consistent with some locking discipline so far.
    Consistent,
    /// Shared-Modified with an empty candidate lockset: no lock protects
    /// this address.
    Violation,
}

struct AddrInfo {
    state: AddrState,
    /// Candidate lockset `C(v)`; `None` until the first access initializes it.
    candidates: Option<BTreeSet<u64>>,
}

/// Tracks held locks per thread and the Eraser state per address.
#[derive(Default)]
pub struct LocksetTracker {
    held: HashMap<u64, BTreeSet<u64>>,
    addrs: HashMap<u64, AddrInfo>,
}

impl LocksetTracker {
    /// A tracker with no locks held and no addresses seen.
    pub fn new() -> LocksetTracker {
        LocksetTracker::default()
    }

    /// Records that `tid` now holds `lock`.
    pub fn acquired(&mut self, tid: u64, lock: u64) {
        self.held.entry(tid).or_default().insert(lock);
    }

    /// Records that `tid` released `lock`.
    pub fn released(&mut self, tid: u64, lock: u64) {
        if let Some(set) = self.held.get_mut(&tid) {
            set.remove(&lock);
        }
    }

    /// The locks `tid` holds now.
    pub fn held(&self, tid: u64) -> Option<&BTreeSet<u64>> {
        self.held.get(&tid)
    }

    /// The candidate lockset for `addr`, if the address has been accessed.
    pub fn candidates(&self, addr: u64) -> Option<&BTreeSet<u64>> {
        self.addrs.get(&addr).and_then(|i| i.candidates.as_ref())
    }

    /// The Eraser state for `addr`, if the address has been accessed.
    pub fn state(&self, addr: u64) -> Option<&AddrState> {
        self.addrs.get(&addr).map(|i| &i.state)
    }

    /// Records an access and returns the verdict for it.
    pub fn access(&mut self, addr: u64, tid: u64, is_write: bool) -> LocksetVerdict {
        let held = self.held.get(&tid).cloned().unwrap_or_default();
        let info = self.addrs.entry(addr).or_insert(AddrInfo {
            state: AddrState::Exclusive { tid },
            candidates: None,
        });

        // Initialize or refine the candidate set with the locks held now.
        match &mut info.candidates {
            None => info.candidates = Some(held.clone()),
            Some(c) => c.retain(|l| held.contains(l)),
        }

        info.state = match info.state.clone() {
            AddrState::Exclusive { tid: owner } if owner == tid => {
                AddrState::Exclusive { tid: owner }
            }
            AddrState::Exclusive { .. } | AddrState::Shared => {
                if is_write {
                    AddrState::SharedModified
                } else {
                    AddrState::Shared
                }
            }
            AddrState::SharedModified => AddrState::SharedModified,
        };

        let empty = info.candidates.as_ref().is_none_or(|c| c.is_empty());
        if info.state == AddrState::SharedModified && empty {
            LocksetVerdict::Violation
        } else {
            LocksetVerdict::Consistent
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_never_violates() {
        let mut t = LocksetTracker::new();
        for _ in 0..10 {
            assert_eq!(t.access(0x100, 1, true), LocksetVerdict::Consistent);
            assert_eq!(t.access(0x100, 1, false), LocksetVerdict::Consistent);
        }
        assert_eq!(t.state(0x100), Some(&AddrState::Exclusive { tid: 1 }));
    }

    #[test]
    fn consistent_locking_stays_clean() {
        let mut t = LocksetTracker::new();
        for &tid in &[1u64, 2, 1, 2] {
            t.acquired(tid, 0x400);
            assert_eq!(t.access(0x100, tid, false), LocksetVerdict::Consistent);
            assert_eq!(t.access(0x100, tid, true), LocksetVerdict::Consistent);
            t.released(tid, 0x400);
        }
        assert_eq!(t.candidates(0x100).map(|c| c.len()), Some(1));
        assert_eq!(t.state(0x100), Some(&AddrState::SharedModified));
    }

    #[test]
    fn unprotected_shared_write_violates() {
        let mut t = LocksetTracker::new();
        assert_eq!(t.access(0x100, 1, true), LocksetVerdict::Consistent);
        assert_eq!(t.access(0x100, 2, true), LocksetVerdict::Violation);
    }

    #[test]
    fn read_sharing_without_writes_is_fine() {
        let mut t = LocksetTracker::new();
        t.access(0x100, 1, false);
        assert_eq!(t.access(0x100, 2, false), LocksetVerdict::Consistent);
        assert_eq!(t.access(0x100, 3, false), LocksetVerdict::Consistent);
        assert_eq!(t.state(0x100), Some(&AddrState::Shared));
    }

    #[test]
    fn inconsistent_locks_empty_the_candidate_set() {
        let mut t = LocksetTracker::new();
        t.acquired(1, 0x400);
        t.access(0x100, 1, true);
        t.released(1, 0x400);
        // Thread 2 uses a *different* lock: intersection becomes empty.
        t.acquired(2, 0x401);
        assert_eq!(t.access(0x100, 2, true), LocksetVerdict::Violation);
        assert!(t.candidates(0x100).unwrap().is_empty());
    }
}
