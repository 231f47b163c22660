//! Exporting traces for foreign toolkits (§5 future work).
//!
//! "An immediate area of future work is converting the output stream
//! produced by K42's trace facility so that it can be read by LTT's visual
//! display toolkit." This module provides two export formats external tools
//! can ingest, each behind a `ktrace-tools` subcommand:
//!
//! * [`to_csv`] — one event per row: time, cpu, major, minor, name,
//!   rendered description, raw payload words (`export-csv`);
//! * [`to_chrome_json`] — the Chrome trace-event format, loadable in
//!   Perfetto / `chrome://tracing`: context switches become thread slices,
//!   lock contention becomes async spans, telemetry heartbeats become
//!   counter tracks (`export-chrome`).

use crate::model::Trace;
use ktrace_events::decode::{lock_event, sched_event, LockEv, SchedEv};
use ktrace_format::ids::control;
use ktrace_format::MajorId;
use std::fmt::Write as _;

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders the trace as CSV with a header row. Control events (fillers,
/// anchors) are omitted unless `include_control`.
pub fn to_csv(trace: &Trace, include_control: bool) -> String {
    let mut out = String::from("time_ns,cpu,major,minor,name,description,payload\n");
    for e in &trace.events {
        if e.is_control() && !include_control {
            continue;
        }
        let (name, desc) = match trace.registry.lookup(e.major, e.minor) {
            Some(d) => (
                d.name.clone(),
                d.describe(&e.payload).unwrap_or_else(|_| String::new()),
            ),
            None => (format!("{}_{}", e.major, e.minor), String::new()),
        };
        let payload: Vec<String> = e.payload.iter().map(|w| format!("{w:x}")).collect();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            e.time,
            e.cpu,
            e.major,
            e.minor,
            csv_escape(&name),
            csv_escape(&desc),
            csv_escape(&payload.join(" "))
        );
    }
    out
}

/// One pending Chrome trace event: a timestamp (µs) plus its rendered JSON
/// object. Entries are stable-sorted by timestamp before emission so the
/// `traceEvents` array is monotonic — Perfetto tolerates disorder but the
/// golden fixture asserts order, which also keeps diffs stable.
struct ChromeEntry {
    ts: f64,
    json: String,
}

/// Ticks → microseconds (the Chrome trace-event time unit).
fn ticks_to_us(t: u64, ticks_per_sec: u64) -> f64 {
    if ticks_per_sec == 0 {
        return t as f64;
    }
    t as f64 * 1e6 / ticks_per_sec as f64
}

/// Formats a microsecond timestamp with fixed precision so the output is
/// byte-deterministic across runs (golden-fixture friendly).
fn fmt_us(ts: f64) -> String {
    format!("{ts:.3}")
}

/// Renders the trace in the Chrome trace-event JSON format, loadable by
/// Perfetto and `chrome://tracing`.
///
/// The mapping (also tabulated in `DESIGN.md`):
///
/// | ktrace | Chrome/Perfetto |
/// |---|---|
/// | CPU `n` | process `pid == n` (named `cpu n`) |
/// | `SCHED/CTX_SWITCH` run interval | complete slice (`ph:"X"`) on `tid == new_tid` |
/// | `LOCK/REQUEST → LOCK/ACQUIRED` wait | async span (`ph:"b"`/`"e"`, `cat:"lock"`) |
/// | `CONTROL/HEARTBEAT` metric slot | counter track (`ph:"C"`, one per metric) |
///
/// Thread slices close at the next context switch on the same CPU, or at
/// trace end for the final run. Lock spans are keyed by `lock_id:tid` so
/// overlapping waits on the same lock from different threads stay distinct.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut entries: Vec<ChromeEntry> = Vec::new();
    let end_ts = trace.end();
    let tps = trace.ticks_per_sec;

    // Per-CPU scan state: the currently running thread, since when.
    let mut cpus: Vec<usize> = trace.events.iter().map(|e| e.cpu).collect();
    cpus.sort_unstable();
    cpus.dedup();
    let mut running: std::collections::HashMap<usize, (u64, u64)> =
        std::collections::HashMap::new();

    let push_slice = |cpu: usize, tid: u64, from: u64, to: u64, out: &mut Vec<ChromeEntry>| {
        let ts = ticks_to_us(from, tps);
        let dur = (ticks_to_us(to, tps) - ts).max(0.0);
        out.push(ChromeEntry {
            ts,
            json: format!(
                "{{\"name\":\"thread {tid:#x}\",\"cat\":\"sched\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":{cpu},\"tid\":{tid}}}",
                fmt_us(ts),
                fmt_us(dur),
            ),
        });
    };

    for e in &trace.events {
        let ts = ticks_to_us(e.time, tps);
        if let Some(SchedEv::CtxSwitch { new_tid, .. }) = sched_event(e) {
            // Close the outgoing thread's slice, open the incoming one.
            if let Some((tid, since)) = running.insert(e.cpu, (new_tid, e.time)) {
                push_slice(e.cpu, tid, since, e.time, &mut entries);
            }
            continue;
        }
        match lock_event(e) {
            Some(LockEv::Request {
                lock: lock_id, tid, ..
            }) => {
                entries.push(ChromeEntry {
                    ts,
                    json: format!(
                        "{{\"name\":\"lock {lock_id:#x} wait\",\"cat\":\"lock\",\"ph\":\"b\",\
                         \"id\":\"{lock_id:#x}:{tid:#x}\",\"ts\":{},\"pid\":{},\"tid\":{tid}}}",
                        fmt_us(ts),
                        e.cpu,
                    ),
                });
                continue;
            }
            Some(LockEv::Acquired {
                lock: lock_id, tid, ..
            }) => {
                entries.push(ChromeEntry {
                    ts,
                    json: format!(
                        "{{\"name\":\"lock {lock_id:#x} wait\",\"cat\":\"lock\",\"ph\":\"e\",\
                         \"id\":\"{lock_id:#x}:{tid:#x}\",\"ts\":{},\"pid\":{},\"tid\":{tid}}}",
                        fmt_us(ts),
                        e.cpu,
                    ),
                });
                continue;
            }
            _ => {}
        }
        match (e.major, e.minor) {
            (MajorId::CONTROL, m)
                if m == control::HEARTBEAT && e.payload.len() == control::HEARTBEAT_WORDS =>
            {
                // payload[0] is the CPU slot; slots 1.. are the metrics, in
                // HEARTBEAT_METRICS order. One counter track per metric.
                let cpu = e.payload[0];
                for (i, name) in control::HEARTBEAT_METRICS.iter().enumerate() {
                    entries.push(ChromeEntry {
                        ts,
                        json: format!(
                            "{{\"name\":\"ktrace {name}\",\"cat\":\"telemetry\",\"ph\":\"C\",\
                             \"ts\":{},\"pid\":{cpu},\"args\":{{\"value\":{}}}}}",
                            fmt_us(ts),
                            e.payload[i + 1],
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    // Close the final run on each CPU at trace end.
    for (cpu, (tid, since)) in running {
        push_slice(cpu, tid, since, end_ts, &mut entries);
    }
    entries.sort_by(|a, b| a.ts.partial_cmp(&b.ts).unwrap_or(std::cmp::Ordering::Equal));

    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for cpu in cpus {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{cpu},\
             \"args\":{{\"name\":\"cpu {cpu}\"}}}}",
        );
    }
    for e in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&e.json);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::{ev, trace};
    use ktrace_events::exception;
    use ktrace_format::MajorId;

    fn sample() -> Trace {
        trace(vec![
            ev(
                0,
                100,
                MajorId::EXCEPTION,
                exception::PGFLT,
                &[0x1, 0x405e628],
            ),
            ev(1, 200, MajorId::CONTROL, control::FILLER, &[]),
            ev(1, 300, MajorId::TEST, 5, &[7, 8]),
        ])
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s = to_csv(&sample(), false);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3, "{s}"); // header + 2 data events
        assert!(lines[0].starts_with("time_ns,cpu,"));
        assert!(lines[1].contains("TRC_EXCEPTION_PGFLT"));
        assert!(lines[1].contains("faultAddr 405e628"));
        assert!(lines[2].contains("TEST_5"));
        // Control events included on demand.
        assert_eq!(to_csv(&sample(), true).lines().count(), 4);
    }

    #[test]
    fn csv_escapes_fields_with_commas() {
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("plain"), "plain");
    }

    #[test]
    fn chrome_export_maps_switches_locks_and_heartbeats() {
        use ktrace_events::{lock, sched};
        let mut hb = vec![0u64; control::HEARTBEAT_WORDS];
        hb[0] = 0; // cpu slot
        hb[1] = 42; // events_logged
        let t = trace(vec![
            ev(0, 1_000, MajorId::SCHED, sched::CTX_SWITCH, &[0, 0x10, 5]),
            ev(0, 2_000, MajorId::LOCK, lock::REQUEST, &[0xbeef, 0x10, 0]),
            ev(
                0,
                3_000,
                MajorId::LOCK,
                lock::ACQUIRED,
                &[0xbeef, 0x10, 0, 3, 1000],
            ),
            ev(0, 4_000, MajorId::CONTROL, control::HEARTBEAT, &hb),
            ev(
                0,
                5_000,
                MajorId::SCHED,
                sched::CTX_SWITCH,
                &[0x10, 0x20, 5],
            ),
            ev(0, 6_000, MajorId::TEST, 0, &[]),
        ]);
        let j = to_chrome_json(&t);
        assert!(j.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(j.ends_with("]}"));
        // Process metadata for the one CPU.
        assert!(j.contains("\"name\":\"cpu 0\""));
        // Thread 0x10 ran from the first switch to the second: a 4 µs slice.
        assert!(j.contains("\"name\":\"thread 0x10\""), "{j}");
        assert!(j.contains("\"ph\":\"X\",\"ts\":1.000,\"dur\":4.000"), "{j}");
        // Thread 0x20's final run closes at trace end (5 µs → 6 µs).
        assert!(j.contains("\"ph\":\"X\",\"ts\":5.000,\"dur\":1.000"), "{j}");
        // The lock wait is an async span keyed by lock:tid.
        assert!(j.contains("\"ph\":\"b\",\"id\":\"0xbeef:0x10\""));
        assert!(j.contains("\"ph\":\"e\",\"id\":\"0xbeef:0x10\""));
        // Heartbeat slots become counter tracks.
        assert!(j.contains("\"name\":\"ktrace events_logged\""));
        assert!(j.contains("\"ph\":\"C\",\"ts\":4.000,\"pid\":0,\"args\":{\"value\":42}"));
        // Every heartbeat metric gets a track.
        for name in control::HEARTBEAT_METRICS {
            assert!(j.contains(&format!("\"ktrace {name}\"")), "{name}");
        }
        // The traceEvents timestamps are monotonic.
        let mut last = f64::MIN;
        for piece in j.split("\"ts\":").skip(1) {
            let num: f64 = piece.split(',').next().unwrap().parse().unwrap();
            assert!(num >= last, "ts went backwards: {num} < {last}");
            last = num;
        }
    }
}
