//! Fine-grained system behaviour (Fig. 8, §4.7).
//!
//! "K42 tracing data is detailed and fine-grained enough to allow us to
//! attribute time accurately among processes, thread switches, IPC activity,
//! page-faults… Within server processes and the kernel we identify how much
//! time is spent servicing IPC calls made by other applications."
//!
//! The tool replays each CPU's event stream through a frame stack (user /
//! syscall / page-fault / IPC-server), attributing the time between
//! consecutive events to the frame on top. Time inside a PPC call is charged
//! to the *server's* pid and simultaneously accumulated as the caller's
//! "Ex-process" time — the row Fig. 8 prints for "calls for this process but
//! outside of it (kernel and server time)".

use crate::model::{pid_names, Trace};
use crate::table::{Align, TextTable};
use ktrace_events::{exception, ipc, sched, syscall as sysev, sysno};
use ktrace_format::MajorId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Accumulated time/call/event counters for one category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Time attributed, in nanoseconds.
    pub time_ns: u64,
    /// Number of calls (entries).
    pub calls: u64,
    /// Trace events logged while the category was on top.
    pub events: u64,
}

/// Per-process attribution.
#[derive(Debug, Clone, Default)]
pub struct ProcessBreakdown {
    /// The process ID.
    pub pid: u64,
    /// Process name, if known.
    pub name: String,
    /// User-mode computation.
    pub user: CallStats,
    /// Per-system-call statistics.
    pub syscalls: BTreeMap<u64, CallStats>,
    /// Page-fault handling on this process's threads.
    pub faults: CallStats,
    /// IPC calls *made by* this process (count; time lands in `ex_process_ns`).
    pub ipc_out: CallStats,
    /// Time this process spent servicing other processes' IPC.
    pub served: CallStats,
    /// Served time broken down by entry point (Fig. 8's "list of thread
    /// entry points containing the number of times they were called and the
    /// amount of time they spent servicing requests").
    pub served_by_fn: BTreeMap<u64, CallStats>,
    /// Time spent on this process's behalf outside it (server time).
    pub ex_process_ns: u64,
}

impl ProcessBreakdown {
    /// Total time attributed to this process (user + kernel + served).
    pub fn total_ns(&self) -> u64 {
        self.user.time_ns
            + self.syscalls.values().map(|s| s.time_ns).sum::<u64>()
            + self.faults.time_ns
            + self.served.time_ns
    }
}

#[derive(Debug, Clone, Copy)]
enum Frame {
    Idle,
    User { pid: u64 },
    Syscall { pid: u64, no: u64 },
    Fault { pid: u64 },
    Ipc { caller: u64, server: u64, func: u64 },
}

/// The full per-process breakdown.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// pid → attribution.
    pub processes: BTreeMap<u64, ProcessBreakdown>,
}

impl Breakdown {
    /// Replays the trace and attributes time.
    pub fn compute(trace: &Trace) -> Breakdown {
        let names = pid_names(trace);
        let ncpus = trace.events.iter().map(|e| e.cpu + 1).max().unwrap_or(0);
        let mut stacks: Vec<Vec<Frame>> = vec![Vec::new(); ncpus];
        let mut last: Vec<Option<u64>> = vec![None; ncpus];
        let mut pending_ipc: Vec<Option<(u64, u64, u64)>> = vec![None; ncpus];
        let mut out = Breakdown::default();

        fn proc_mut<'a>(
            out: &'a mut Breakdown,
            names: &std::collections::HashMap<u64, String>,
            pid: u64,
        ) -> &'a mut ProcessBreakdown {
            out.processes
                .entry(pid)
                .or_insert_with(|| ProcessBreakdown {
                    pid,
                    name: names.get(&pid).cloned().unwrap_or_default(),
                    ..Default::default()
                })
        }

        for e in &trace.events {
            if e.is_control() {
                continue;
            }
            let c = e.cpu;
            // Attribute the elapsed interval to the current top frame.
            if let Some(prev) = last[c] {
                let dt = e.time.saturating_sub(prev);
                match stacks[c].last().copied() {
                    Some(Frame::User { pid }) => proc_mut(&mut out, &names, pid).user.time_ns += dt,
                    Some(Frame::Syscall { pid, no }) => {
                        proc_mut(&mut out, &names, pid)
                            .syscalls
                            .entry(no)
                            .or_default()
                            .time_ns += dt;
                    }
                    Some(Frame::Fault { pid }) => {
                        proc_mut(&mut out, &names, pid).faults.time_ns += dt
                    }
                    Some(Frame::Ipc {
                        caller,
                        server,
                        func,
                    }) => {
                        let p = proc_mut(&mut out, &names, server);
                        p.served.time_ns += dt;
                        p.served_by_fn.entry(func).or_default().time_ns += dt;
                        proc_mut(&mut out, &names, caller).ex_process_ns += dt;
                    }
                    Some(Frame::Idle) | None => {}
                }
            }
            last[c] = Some(e.time);

            // Count the event toward the frame it occurred under.
            match stacks[c].last().copied() {
                Some(Frame::User { pid }) => proc_mut(&mut out, &names, pid).user.events += 1,
                Some(Frame::Syscall { pid, no }) => {
                    proc_mut(&mut out, &names, pid)
                        .syscalls
                        .entry(no)
                        .or_default()
                        .events += 1;
                }
                Some(Frame::Fault { pid }) => proc_mut(&mut out, &names, pid).faults.events += 1,
                Some(Frame::Ipc { server, .. }) => {
                    proc_mut(&mut out, &names, server).served.events += 1;
                }
                _ => {}
            }

            // Apply the state transition.
            let cur_pid = stacks[c].iter().rev().find_map(|f| match f {
                Frame::User { pid } | Frame::Syscall { pid, .. } | Frame::Fault { pid } => {
                    Some(*pid)
                }
                Frame::Ipc { caller, .. } => Some(*caller),
                Frame::Idle => None,
            });
            match (e.major, e.minor) {
                (MajorId::SCHED, sched::CTX_SWITCH) if e.payload.len() >= 3 => {
                    stacks[c] = vec![Frame::User { pid: e.payload[2] }];
                }
                (MajorId::SCHED, sched::IDLE_START) => stacks[c] = vec![Frame::Idle],
                (MajorId::SCHED, sched::IDLE_END) => stacks[c].clear(),
                (MajorId::SYSCALL, sysev::ENTRY) if e.payload.len() >= 3 => {
                    let (pid, no) = (e.payload[0], e.payload[2]);
                    proc_mut(&mut out, &names, pid)
                        .syscalls
                        .entry(no)
                        .or_default()
                        .calls += 1;
                    stacks[c].push(Frame::Syscall { pid, no });
                }
                (MajorId::SYSCALL, sysev::EXIT) => {
                    if matches!(stacks[c].last(), Some(Frame::Syscall { .. })) {
                        stacks[c].pop();
                    }
                }
                (MajorId::EXCEPTION, exception::PGFLT) => {
                    if let Some(pid) = cur_pid {
                        proc_mut(&mut out, &names, pid).faults.calls += 1;
                        stacks[c].push(Frame::Fault { pid });
                    }
                }
                (MajorId::EXCEPTION, exception::PGFLT_DONE) => {
                    if matches!(stacks[c].last(), Some(Frame::Fault { .. })) {
                        stacks[c].pop();
                    }
                }
                (MajorId::IPC, ipc::CALL) if e.payload.len() >= 3 => {
                    pending_ipc[c] = Some((e.payload[0], e.payload[1], e.payload[2]));
                    proc_mut(&mut out, &names, e.payload[0]).ipc_out.calls += 1;
                }
                (MajorId::EXCEPTION, exception::PPC_CALL) => {
                    let (caller, server, func) =
                        pending_ipc[c]
                            .take()
                            .unwrap_or((cur_pid.unwrap_or(0), 1, 0));
                    let p = proc_mut(&mut out, &names, server);
                    p.served.calls += 1;
                    p.served_by_fn.entry(func).or_default().calls += 1;
                    stacks[c].push(Frame::Ipc {
                        caller,
                        server,
                        func,
                    });
                }
                (MajorId::EXCEPTION, exception::PPC_RETURN) => {
                    if matches!(stacks[c].last(), Some(Frame::Ipc { .. })) {
                        stacks[c].pop();
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Renders the Fig. 8-style block for one process (times in µs, as in
    /// the paper: "all times are in microseconds").
    pub fn render_process(&self, pid: u64) -> String {
        let Some(p) = self.processes.get(&pid) else {
            return format!("no data for pid {pid}\n");
        };
        let us = |ns: u64| format!("{:.2}", ns as f64 / 1_000.0);
        let mut out = format!(
            "Process {pid} ({})\n",
            if p.name.is_empty() { "?" } else { &p.name }
        );
        let mut t = TextTable::new(&[
            ("category", Align::Left),
            ("time(us)", Align::Right),
            ("calls", Align::Right),
            ("events", Align::Right),
        ]);
        t.row(vec![
            "user".into(),
            us(p.user.time_ns),
            "-".into(),
            p.user.events.to_string(),
        ]);
        for (&no, s) in &p.syscalls {
            t.row(vec![
                sysno::name(no).into(),
                us(s.time_ns),
                s.calls.to_string(),
                s.events.to_string(),
            ]);
        }
        t.row(vec![
            "page faults".into(),
            us(p.faults.time_ns),
            p.faults.calls.to_string(),
            p.faults.events.to_string(),
        ]);
        t.row(vec![
            "IPC calls made".into(),
            "-".into(),
            p.ipc_out.calls.to_string(),
            "-".into(),
        ]);
        t.row(vec![
            "Ex-process".into(),
            us(p.ex_process_ns),
            "-".into(),
            "-".into(),
        ]);
        t.row(vec![
            "served IPC".into(),
            us(p.served.time_ns),
            p.served.calls.to_string(),
            p.served.events.to_string(),
        ]);
        for (&func, s) in &p.served_by_fn {
            t.row(vec![
                format!("  entry point fn#{func}"),
                us(s.time_ns),
                s.calls.to_string(),
                s.events.to_string(),
            ]);
        }
        let _ = write!(out, "{}", t.render());
        let _ = writeln!(out, "total {} us", us(p.total_ns()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::{ev, trace};

    /// One CPU: pid 5 runs user code, makes a syscall containing an IPC to
    /// the server (pid 1), then faults.
    fn scenario() -> Trace {
        trace(vec![
            ev(0, 1_000, MajorId::SCHED, sched::CTX_SWITCH, &[0, 0x50, 5]),
            // user until 2_000
            ev(
                0,
                2_000,
                MajorId::SYSCALL,
                sysev::ENTRY,
                &[5, 0x50, sysno::EXEC],
            ),
            // in-syscall until 2_500
            ev(0, 2_500, MajorId::IPC, ipc::CALL, &[5, 1, 2]),
            ev(0, 2_500, MajorId::EXCEPTION, exception::PPC_CALL, &[9]),
            // server time until 4_500
            ev(0, 4_500, MajorId::EXCEPTION, exception::PPC_RETURN, &[9]),
            // back in syscall until 5_000
            ev(
                0,
                5_000,
                MajorId::SYSCALL,
                sysev::EXIT,
                &[5, 0x50, sysno::EXEC],
            ),
            // user until 6_000
            ev(
                0,
                6_000,
                MajorId::EXCEPTION,
                exception::PGFLT,
                &[0x50, 0x9000],
            ),
            ev(
                0,
                7_500,
                MajorId::EXCEPTION,
                exception::PGFLT_DONE,
                &[0x50, 0x9000],
            ),
            ev(
                0,
                8_000,
                MajorId::SCHED,
                sched::CTX_SWITCH,
                &[0x50, 0x60, 6],
            ),
        ])
    }

    #[test]
    fn attributes_user_syscall_fault_time() {
        let b = Breakdown::compute(&scenario());
        let p5 = &b.processes[&5];
        // user: 1000→2000 and 5000→6000, plus 7500→8000 after fault done.
        assert_eq!(p5.user.time_ns, 1_000 + 1_000 + 500);
        let exec = &p5.syscalls[&sysno::EXEC];
        assert_eq!(exec.calls, 1);
        // syscall-top time: 2000→2500 and 4500→5000.
        assert_eq!(exec.time_ns, 1_000);
        assert_eq!(p5.faults.calls, 1);
        assert_eq!(p5.faults.time_ns, 1_500);
    }

    #[test]
    fn ipc_time_lands_on_server_and_ex_process() {
        let b = Breakdown::compute(&scenario());
        let p5 = &b.processes[&5];
        let p1 = &b.processes[&1];
        assert_eq!(p5.ipc_out.calls, 1);
        assert_eq!(p5.ex_process_ns, 2_000);
        assert_eq!(p1.served.time_ns, 2_000);
        assert_eq!(p1.served.calls, 1);
        assert_eq!(p1.name, "baseServers");
        // Entry-point attribution (Fig. 8's bottom list): fn 2 served once.
        let entry = &p1.served_by_fn[&2];
        assert_eq!(entry.calls, 1);
        assert_eq!(entry.time_ns, 2_000);
    }

    #[test]
    fn events_counted_under_their_frame() {
        let b = Breakdown::compute(&scenario());
        let p5 = &b.processes[&5];
        // SYSCALL ENTRY occurs under User; IPC CALL + PPC_CALL under Syscall;
        // PPC_RETURN under Ipc; SYSCALL EXIT under Syscall after pop.
        assert_eq!(p5.syscalls[&sysno::EXEC].events, 3);
        assert_eq!(b.processes[&1].served.events, 1);
    }

    #[test]
    fn render_contains_paper_rows() {
        let b = Breakdown::compute(&scenario());
        let s = b.render_process(5);
        assert!(s.contains("SCexecve"), "{s}");
        assert!(s.contains("Ex-process"));
        assert!(s.contains("page faults"));
        assert!(s.contains("total"));
        assert!(b.render_process(99).contains("no data"));
    }

    #[test]
    fn idle_time_not_attributed() {
        let t = trace(vec![
            ev(0, 0, MajorId::SCHED, sched::CTX_SWITCH, &[0, 0x50, 5]),
            ev(0, 1_000, MajorId::SCHED, sched::IDLE_START, &[]),
            ev(0, 9_000, MajorId::SCHED, sched::IDLE_END, &[8_000]),
            ev(0, 9_100, MajorId::SCHED, sched::CTX_SWITCH, &[0, 0x50, 5]),
            ev(0, 9_600, MajorId::SCHED, sched::CTX_SWITCH, &[0x50, 0, 0]),
        ]);
        let b = Breakdown::compute(&t);
        let p5 = &b.processes[&5];
        assert_eq!(p5.user.time_ns, 1_000 + 500, "idle gap must not count");
    }
}
