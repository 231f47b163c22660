//! Lock-contention analysis (Fig. 7, §4.6).
//!
//! "The left column is the total amount of time (over the given run) that
//! was spent waiting for that particular lock. The next column is the number
//! of times that lock was contended. The spin column is the number of times
//! we have gone around the spin loop… The next column is the maximum time a
//! process ever waited to acquire this lock. The tool will sort on any of
//! these columns. The next column indicates the PID the lock was associated
//! with… The final column is the call chain that led to the lock
//! acquisition."
//!
//! Aggregation is per *(lock, call chain, pid)* instance — the paper's
//! "instance by instance" capability — from the `LOCK`
//! REQUEST/ACQUIRED/RELEASED triples.

use crate::model::{tid_to_pid, Trace};
use crate::table::ns_as_secs;
use ktrace_events::decode::{lock_events, LockEv};
use ktrace_events::{func, unpack_chain};
use ktrace_format::MajorId;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Aggregated contention for one (lock, call chain, pid) instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockRow {
    /// Lock identity.
    pub lock_id: u64,
    /// Packed call chain (innermost function first when unpacked).
    pub chain: u64,
    /// Process the acquisitions belong to.
    pub pid: u64,
    /// Total wait time in nanoseconds.
    pub wait_ns: u64,
    /// Number of contended acquisitions.
    pub contended: u64,
    /// Total acquisitions (contended or not).
    pub acquisitions: u64,
    /// Total spin iterations.
    pub spins: u64,
    /// Longest single wait in nanoseconds.
    pub max_wait_ns: u64,
}

/// Sort key for the report — "the tool will sort on any of these columns".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockSortKey {
    /// Total wait time (the default, as in Fig. 7).
    Time,
    /// Contended-acquisition count.
    Count,
    /// Spin iterations.
    Spins,
    /// Maximum single wait.
    MaxTime,
}

/// The lock-contention report.
#[derive(Debug, Clone)]
pub struct LockStats {
    /// One row per (lock, chain, pid) instance.
    pub rows: Vec<LockRow>,
}

impl LockStats {
    /// Aggregates lock events from a trace.
    pub fn compute(trace: &Trace) -> LockStats {
        // Per (lock, chain, tid) first, so that pids are recovered for the
        // threads that took locks and no others; sums, counts and maxima
        // fold by pid afterwards into the same rows.
        let mut by_tid: HashMap<(u64, u64, u64), LockRow> = HashMap::new();
        for (_, ev) in lock_events(trace.of_major(MajorId::LOCK)) {
            let LockEv::Acquired {
                lock: lock_id,
                tid,
                chain,
                spins,
                wait_ns,
            } = ev
            else {
                continue;
            };
            let row = by_tid.entry((lock_id, chain, tid)).or_default();
            row.acquisitions += 1;
            row.spins += spins;
            row.wait_ns += wait_ns;
            row.max_wait_ns = row.max_wait_ns.max(wait_ns);
            if wait_ns > 0 || spins > 0 {
                row.contended += 1;
            }
        }
        let tids: HashSet<u64> = by_tid.keys().map(|&(_, _, tid)| tid).collect();
        let tid_pid = tid_to_pid(trace, |tid| tids.contains(&tid));
        let mut rows: HashMap<(u64, u64, u64), LockRow> = HashMap::new();
        for ((lock_id, chain, tid), part) in by_tid {
            let pid = tid_pid.get(&tid).copied().unwrap_or(0);
            let row = rows.entry((lock_id, chain, pid)).or_insert(LockRow {
                lock_id,
                chain,
                pid,
                ..LockRow::default()
            });
            row.acquisitions += part.acquisitions;
            row.spins += part.spins;
            row.wait_ns += part.wait_ns;
            row.max_wait_ns = row.max_wait_ns.max(part.max_wait_ns);
            row.contended += part.contended;
        }
        let mut stats = LockStats {
            rows: rows.into_values().collect(),
        };
        stats.sort_by(LockSortKey::Time);
        stats
    }

    /// Re-sorts the rows (descending) by the given column.
    pub fn sort_by(&mut self, key: LockSortKey) {
        // Secondary keys keep the order deterministic for ties.
        self.rows.sort_by_key(|r| {
            let primary = match key {
                LockSortKey::Time => r.wait_ns,
                LockSortKey::Count => r.contended,
                LockSortKey::Spins => r.spins,
                LockSortKey::MaxTime => r.max_wait_ns,
            };
            (std::cmp::Reverse(primary), r.lock_id, r.chain, r.pid)
        });
    }

    /// Renders the Fig. 7 report: `top N contended locks by <key>`, one
    /// stanza per instance with the call chain underneath.
    pub fn render(&self, top: usize, key_name: &str) -> String {
        let mut out =
            format!("top {top} contended locks by {key_name} - for full list see traceLockStats\n");
        out.push_str("time  count  spin  max time  pid\ncall chain\n\n");
        for r in self.rows.iter().take(top) {
            let _ = writeln!(
                out,
                "{}  {}  {}  {}  0x{:x}",
                ns_as_secs(r.wait_ns),
                r.contended,
                r.spins,
                ns_as_secs(r.max_wait_ns),
                r.pid
            );
            for f in unpack_chain(r.chain) {
                let _ = writeln!(out, "{}", func::name(f));
            }
            out.push('\n');
        }
        out
    }

    /// Total wait time across all instances (the "fix the top lock, rerun"
    /// loop of §4 watches this number fall).
    pub fn total_wait_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.wait_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::{ev, trace};
    use ktrace_events::{lock as lockev, pack_chain, sched};

    fn acquired(
        t: u64,
        lock: u64,
        tid: u64,
        chain: u64,
        spins: u64,
        wait: u64,
    ) -> ktrace_core::RawEvent {
        ev(
            0,
            t,
            MajorId::LOCK,
            lockev::ACQUIRED,
            &[lock, tid, chain, spins, wait],
        )
    }

    fn sample() -> Trace {
        let chain_a = pack_chain(&[func::GMALLOC, func::PMALLOC, func::ALLOC_REGION_ALLOC]);
        let chain_b = pack_chain(&[func::ALLOCPOOL_LARGE_FREE, func::PAGEALLOC_DEALLOC]);
        trace(vec![
            ev(0, 1, MajorId::SCHED, sched::THREAD_START, &[100, 1]),
            ev(0, 2, MajorId::SCHED, sched::THREAD_START, &[200, 2]),
            acquired(10, 0x100, 100, chain_a, 50, 1_000),
            acquired(20, 0x100, 100, chain_a, 150, 3_000),
            acquired(30, 0x100, 200, chain_a, 10, 500), // same lock+chain, other pid
            acquired(40, 0x200, 100, chain_b, 0, 0),    // uncontended
            acquired(50, 0x200, 100, chain_b, 5, 200),
        ])
    }

    #[test]
    fn aggregates_per_lock_chain_pid() {
        let stats = LockStats::compute(&sample());
        assert_eq!(stats.rows.len(), 3);
        let top = &stats.rows[0];
        assert_eq!(top.lock_id, 0x100);
        assert_eq!(top.pid, 1);
        assert_eq!(top.wait_ns, 4_000);
        assert_eq!(top.contended, 2);
        assert_eq!(top.acquisitions, 2);
        assert_eq!(top.spins, 200);
        assert_eq!(top.max_wait_ns, 3_000);
        assert_eq!(stats.total_wait_ns(), 4_000 + 500 + 200);
    }

    #[test]
    fn a_thread_has_one_pid_the_last_seen_wherever_its_acquisitions_lie() {
        let chain = pack_chain(&[func::GMALLOC]);
        let stats = LockStats::compute(&trace(vec![
            // Thread 100 takes the lock before any event introduces it.
            acquired(10, 0x100, 100, chain, 1, 100),
            ev(0, 20, MajorId::SCHED, sched::THREAD_START, &[100, 1]),
            // Thread 200 starts in pid 2 and is last seen in pid 3.
            ev(0, 25, MajorId::SCHED, sched::THREAD_START, &[200, 2]),
            acquired(30, 0x100, 200, chain, 2, 200),
            ev(0, 40, MajorId::SCHED, sched::CTX_SWITCH, &[0, 200, 3]),
            acquired(50, 0x100, 200, chain, 4, 400),
            // A second thread of pid 1 folds into its row; thread 300 takes
            // no lock and makes none.
            ev(0, 60, MajorId::SCHED, sched::THREAD_START, &[101, 1]),
            acquired(70, 0x100, 101, chain, 0, 0),
            ev(0, 80, MajorId::SCHED, sched::THREAD_START, &[300, 9]),
        ]));
        let rows: Vec<(u64, u64, u64, u64, u64, u64)> = stats
            .rows
            .iter()
            .map(|r| {
                (
                    r.pid,
                    r.acquisitions,
                    r.contended,
                    r.spins,
                    r.wait_ns,
                    r.max_wait_ns,
                )
            })
            .collect();
        assert_eq!(rows, vec![(3, 2, 2, 6, 600, 400), (1, 2, 1, 1, 100, 100)]);
    }

    #[test]
    fn uncontended_acquisitions_counted_separately() {
        let stats = LockStats::compute(&sample());
        let b = stats.rows.iter().find(|r| r.lock_id == 0x200).unwrap();
        assert_eq!(b.acquisitions, 2);
        assert_eq!(b.contended, 1);
    }

    #[test]
    fn sorting_on_each_column() {
        let mut stats = LockStats::compute(&sample());
        stats.sort_by(LockSortKey::Spins);
        assert!(stats.rows.windows(2).all(|w| w[0].spins >= w[1].spins));
        stats.sort_by(LockSortKey::MaxTime);
        assert!(stats
            .rows
            .windows(2)
            .all(|w| w[0].max_wait_ns >= w[1].max_wait_ns));
        stats.sort_by(LockSortKey::Count);
        assert!(stats
            .rows
            .windows(2)
            .all(|w| w[0].contended >= w[1].contended));
    }

    #[test]
    fn render_shows_chains_and_pids() {
        let stats = LockStats::compute(&sample());
        let s = stats.render(2, "time");
        assert!(s.contains("top 2 contended locks by time"), "{s}");
        assert!(s.contains("AllocRegionManager::alloc(unsigned)"), "{s}");
        assert!(s.contains("GMalloc::gMalloc()"));
        assert!(s.contains("0x1"));
        // Fig. 7 formats waits as seconds with 9 decimals.
        assert!(s.contains("0.000004000"), "{s}");
    }

    #[test]
    fn empty_trace_empty_report() {
        let stats = LockStats::compute(&trace(vec![]));
        assert!(stats.rows.is_empty());
        assert_eq!(stats.total_wait_ns(), 0);
    }
}
