//! `FairBLock`: the instrumented spin lock of the simulated kernel.
//!
//! K42's `FairBLock` is a fair spin-then-block lock; its contention is the
//! subject of the paper's lock-analysis tool (Fig. 7, §4.6). Here it is a
//! test-and-test-and-set lock with yield-based backoff over real atomics —
//! tasks on different simulated CPUs (real threads) genuinely contend — that
//! reports spins and wait time to the caller, which logs the `LOCK` events.
//!
//! Divergence from K42: acquisition is abortable (needed so the watchdog can
//! recover a deadlocked simulation and hand the flight recorder to the
//! deadlock-analysis tool, §4.2), which rules out strict FIFO tickets — an
//! abandoned ticket would wedge the queue. Contention *statistics*, which are
//! what the analysis consumes, are unaffected.

use ktrace_format::protocol::{ExactCounter, LockFlag, SignalFlag};
use std::time::Instant;

/// How a lock acquisition went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcquireStats {
    /// Spin-loop iterations before the lock was taken.
    pub spins: u64,
    /// Real time spent waiting, in nanoseconds.
    pub wait_ns: u64,
    /// Whether any waiting happened at all (the lock was contended).
    pub contended: bool,
}

/// An instrumented spin-then-yield lock.
///
/// This is deliberately *not* a `Mutex<T>`-style owner: the simulated kernel
/// brackets critical sections explicitly so the tracer can log
/// request/acquire/release as three separate events, as K42 does.
#[derive(Debug)]
pub struct FairBLock {
    id: u64,
    /// The test-and-test-and-set word.
    locked: LockFlag,
    /// Lifetime acquisition count (cheap sanity statistic).
    acquisitions: ExactCounter,
}

impl FairBLock {
    /// Creates a lock with a stable identity (logged with every event).
    pub fn new(id: u64) -> FairBLock {
        FairBLock {
            id,
            locked: LockFlag::new(),
            acquisitions: ExactCounter::new(0),
        }
    }

    /// The lock's identity.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Total successful acquisitions so far.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load()
    }

    /// Acquires the lock, spinning (yielding periodically — the "block" of a
    /// spin-then-block lock) until taken or `abort` is raised.
    /// Returns `None` only on abort, in which case the lock is *not* held.
    pub fn acquire(&self, abort: &SignalFlag) -> Option<AcquireStats> {
        if self.locked.try_lock() {
            self.acquisitions.add(1);
            return Some(AcquireStats {
                spins: 0,
                wait_ns: 0,
                contended: false,
            });
        }
        let start = Instant::now();
        let mut spins = 0u64;
        loop {
            // Test before test-and-set: spin on a shared read, not a CAS.
            while self.locked.is_locked() {
                spins += 1;
                if spins.is_multiple_of(1024) {
                    std::thread::yield_now();
                    if abort.is_raised() {
                        return None;
                    }
                }
                std::hint::spin_loop();
            }
            if self.locked.try_lock() {
                self.acquisitions.add(1);
                return Some(AcquireStats {
                    spins,
                    wait_ns: start.elapsed().as_nanos() as u64,
                    contended: true,
                });
            }
            spins += 1;
        }
    }

    /// Releases the lock (caller must hold it).
    pub fn release(&self) {
        self.locked.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_format::protocol::StatisticCounter;
    use std::sync::Arc;

    #[test]
    fn uncontended_acquire_is_free() {
        let l = FairBLock::new(7);
        let abort = SignalFlag::new();
        let s = l.acquire(&abort).unwrap();
        assert!(!s.contended);
        assert_eq!(s.spins, 0);
        l.release();
        assert_eq!(l.id(), 7);
        assert_eq!(l.acquisitions(), 1);
    }

    #[test]
    fn mutual_exclusion_holds() {
        let l = Arc::new(FairBLock::new(1));
        let counter = Arc::new(StatisticCounter::new(0));
        let abort = Arc::new(SignalFlag::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let l = l.clone();
                let c = counter.clone();
                let a = abort.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        l.acquire(&a).unwrap();
                        // A load+store increment: exact only under the lock.
                        c.bump(1);
                        l.release();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(), 80_000);
        assert_eq!(l.acquisitions(), 80_000);
    }

    #[test]
    fn contention_is_reported() {
        let l = Arc::new(FairBLock::new(2));
        let abort = Arc::new(SignalFlag::new());
        let l2 = l.clone();
        let a2 = abort.clone();
        l.acquire(&abort).unwrap();
        // The 5 ms hold starts when the waiter is about to ask for the lock,
        // not at spawn: a waiter that starts late on a loaded host must still
        // wait the full hold.
        let (arrived, arrival) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            arrived.send(()).unwrap();
            l2.acquire(&a2).unwrap()
        });
        arrival.recv().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        l.release();
        let stats = waiter.join().unwrap();
        assert!(stats.contended);
        assert!(stats.wait_ns >= 2_000_000, "waited {} ns", stats.wait_ns);
        assert!(stats.spins > 0);
    }

    #[test]
    fn abort_breaks_the_wait_without_taking_the_lock() {
        let l = Arc::new(FairBLock::new(3));
        let abort = Arc::new(SignalFlag::new());
        l.acquire(&abort).unwrap(); // never released: simulated deadlock
        let l2 = l.clone();
        let a2 = abort.clone();
        let waiter = std::thread::spawn(move || l2.acquire(&a2));
        std::thread::sleep(std::time::Duration::from_millis(3));
        abort.raise();
        assert_eq!(waiter.join().unwrap(), None);
        assert_eq!(l.acquisitions(), 1, "aborted waiter must not have acquired");
    }
}
