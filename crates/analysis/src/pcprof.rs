//! Statistical execution profiling (Fig. 6, §4.5).
//!
//! "An event that logs the program counter at random times is used to drive
//! statistical execution profiling. Post-processing analysis maps the pc
//! values to C function names and provides a sorted histogram of the
//! routines that were statistically most active." In the simulator the "pc"
//! is a simulated function ID, mapped to the K42-flavoured names of the
//! shared vocabulary.

use crate::model::{pid_names, Trace};
use crate::table::{Align, TextTable};
use ktrace_events::{func, prof};
use ktrace_format::MajorId;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Per-process PC-sample histogram.
#[derive(Debug, Clone, Default)]
pub struct PcProfile {
    /// pid → (func id → sample count).
    pub by_pid: HashMap<u64, HashMap<u16, u64>>,
    /// pid → display name.
    pub names: HashMap<u64, String>,
}

impl PcProfile {
    /// Builds the histogram from `PROF` samples.
    pub fn compute(trace: &Trace) -> PcProfile {
        let mut by_pid: HashMap<u64, HashMap<u16, u64>> = HashMap::new();
        for e in trace.of_major(MajorId::PROF) {
            if e.minor == prof::PC_SAMPLE && e.payload.len() >= 3 {
                *by_pid
                    .entry(e.payload[0])
                    .or_default()
                    .entry(e.payload[2] as u16)
                    .or_default() += 1;
            }
        }
        PcProfile {
            by_pid,
            names: pid_names(trace),
        }
    }

    /// Total samples for a pid.
    pub fn samples(&self, pid: u64) -> u64 {
        self.by_pid.get(&pid).map_or(0, |h| h.values().sum())
    }

    /// The sorted (count, func) histogram for one pid, hottest first.
    pub fn hottest(&self, pid: u64) -> Vec<(u64, u16)> {
        let mut rows: Vec<(u64, u16)> = self
            .by_pid
            .get(&pid)
            .map(|h| h.iter().map(|(&f, &c)| (c, f)).collect())
            .unwrap_or_default();
        rows.sort_by_key(|&(c, f)| (std::cmp::Reverse(c), f));
        rows
    }

    /// Renders the Fig. 6 block for one pid.
    pub fn render(&self, pid: u64) -> String {
        let name = self
            .names
            .get(&pid)
            .cloned()
            .unwrap_or_else(|| format!("pid{pid}"));
        let mut out = format!("histogram for pid 0x{pid:x} mapped filename {name}\n");
        let mut table = TextTable::new(&[("count", Align::Right), ("method", Align::Left)]);
        for (count, f) in self.hottest(pid) {
            table.row(vec![count.to_string(), func::name(f).to_string()]);
        }
        let _ = write!(out, "{}", table.render());
        out
    }

    /// Renders every profiled pid, busiest first.
    pub fn render_all(&self) -> String {
        let mut pids: Vec<u64> = self.by_pid.keys().copied().collect();
        pids.sort_by_key(|&p| (std::cmp::Reverse(self.samples(p)), p));
        pids.iter().map(|&p| self.render(p) + "\n").collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::{ev, trace};

    fn sample_trace() -> Trace {
        let mut events = Vec::new();
        let mut t = 0;
        let mut push = |pid: u64, f: u16, n: usize, events: &mut Vec<_>| {
            for _ in 0..n {
                t += 10;
                events.push(ev(
                    0,
                    t,
                    MajorId::PROF,
                    prof::PC_SAMPLE,
                    &[pid, 0x99, f as u64],
                ));
            }
        };
        push(1, func::FAIRBLOCK_ACQUIRE, 904, &mut events);
        push(1, func::HASH_ADD, 585, &mut events);
        push(1, func::IPC_CALLEE_ENTRY, 386, &mut events);
        push(2, func::USER_COMPUTE, 10, &mut events);
        trace(events)
    }

    #[test]
    fn histogram_counts_and_sorts() {
        let p = PcProfile::compute(&sample_trace());
        assert_eq!(p.samples(1), 904 + 585 + 386);
        assert_eq!(p.samples(2), 10);
        assert_eq!(p.samples(3), 0);
        let h = p.hottest(1);
        assert_eq!(h[0], (904, func::FAIRBLOCK_ACQUIRE));
        assert_eq!(h[1], (585, func::HASH_ADD));
        assert_eq!(h[2], (386, func::IPC_CALLEE_ENTRY));
    }

    #[test]
    fn render_matches_fig6_shape() {
        let p = PcProfile::compute(&sample_trace());
        let s = p.render(1);
        assert!(
            s.starts_with("histogram for pid 0x1 mapped filename baseServers"),
            "{s}"
        );
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].contains("count") && lines[1].contains("method"));
        assert!(lines[2].contains("904") && lines[2].contains("FairBLock::_acquire()"));
    }

    #[test]
    fn render_all_orders_by_activity() {
        let p = PcProfile::compute(&sample_trace());
        let s = p.render_all();
        let pid1 = s.find("pid 0x1").unwrap();
        let pid2 = s.find("pid 0x2").unwrap();
        assert!(pid1 < pid2, "busiest pid first");
    }
}
