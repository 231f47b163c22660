//! Event frequency accounting (§4.2).
//!
//! "Developers have used the tracing facility to obtain statistics about the
//! relative frequency of different paths taken through code. A typical
//! alternative solution would have been to design a one-off counter solution
//! that would have been removed once the information was gathered."

use crate::model::Trace;
use crate::table::{Align, TextTable};
use ktrace_format::ids::control;
use ktrace_format::{MajorId, MinorId};
use std::collections::HashMap;

/// Per-event-type frequency statistics.
#[derive(Debug, Clone, Default)]
pub struct EventStats {
    /// (major, minor) → occurrence count.
    pub counts: HashMap<(MajorId, MinorId), u64>,
    /// Total events (control events excluded).
    pub total: u64,
    /// Events dropped to consumer overrun, summed from the in-stream
    /// DROPPED markers (§3.1).
    pub dropped: u64,
    /// Trace duration in ticks.
    pub span_ticks: u64,
    /// Ticks per second, for rate computation.
    pub ticks_per_sec: u64,
}

impl EventStats {
    /// Counts events per type, and the drops the stream's markers record.
    pub fn compute(trace: &Trace) -> EventStats {
        let mut s = EventStats {
            ticks_per_sec: trace.ticks_per_sec,
            span_ticks: trace.span(),
            ..Default::default()
        };
        for e in &trace.events {
            if e.is_control() {
                if e.minor == control::DROPPED {
                    s.dropped += e.payload.first().copied().unwrap_or(0);
                }
                continue;
            }
            *s.counts.entry((e.major, e.minor)).or_default() += 1;
            s.total += 1;
        }
        s
    }

    /// Overall event rate per second.
    pub fn events_per_sec(&self) -> f64 {
        if self.span_ticks == 0 {
            return 0.0;
        }
        self.total as f64 * self.ticks_per_sec as f64 / self.span_ticks as f64
    }

    /// Rows sorted by count descending.
    pub fn sorted(&self) -> Vec<((MajorId, MinorId), u64)> {
        let mut rows: Vec<_> = self.counts.iter().map(|(&k, &v)| (k, v)).collect();
        rows.sort_by_key(|&((maj, min), c)| (std::cmp::Reverse(c), maj, min));
        rows
    }

    /// Renders a frequency table, resolving names through the registry.
    pub fn render(&self, trace: &Trace) -> String {
        let mut t = TextTable::new(&[
            ("count", Align::Right),
            ("share", Align::Right),
            ("event", Align::Left),
        ]);
        for ((maj, min), count) in self.sorted() {
            let name = trace
                .registry
                .lookup(maj, min)
                .map(|d| d.name.clone())
                .unwrap_or_else(|| format!("{maj}/{min}"));
            let share = if self.total > 0 {
                format!("{:.1}%", 100.0 * count as f64 / self.total as f64)
            } else {
                "-".into()
            };
            t.row(vec![count.to_string(), share, name]);
        }
        format!(
            "{} events, {:.0} events/sec, {} event(s) dropped to overrun\n{}",
            self.total,
            self.events_per_sec(),
            self.dropped,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::{ev, trace};
    use ktrace_events::sched;

    fn sample() -> Trace {
        let mut events = Vec::new();
        for i in 0..10u64 {
            events.push(ev(
                0,
                i * 100,
                MajorId::SCHED,
                sched::CTX_SWITCH,
                &[0, 1, 2],
            ));
        }
        for i in 0..3u64 {
            events.push(ev(0, i * 100 + 5, MajorId::TEST, 7, &[]));
        }
        // Control events excluded from stats.
        events.push(ev(0, 50, MajorId::CONTROL, control::FILLER, &[]));
        trace(events)
    }

    #[test]
    fn counts_and_sorts() {
        let t = sample();
        let s = EventStats::compute(&t);
        assert_eq!(s.total, 13);
        let rows = s.sorted();
        assert_eq!(rows[0], ((MajorId::SCHED, sched::CTX_SWITCH), 10));
        assert_eq!(rows[1], ((MajorId::TEST, 7), 3));
    }

    #[test]
    fn rate_uses_span() {
        let t = sample();
        let s = EventStats::compute(&t);
        // span = 900 ticks at 1e9 ticks/s → 13 events / 0.9µs.
        assert!((s.events_per_sec() - 13.0 / 9e-7).abs() / (13.0 / 9e-7) < 1e-9);
    }

    #[test]
    fn render_resolves_names() {
        let t = sample();
        let s = EventStats::compute(&t).render(&t);
        assert!(s.contains("TRACE_SCHED_CTX_SWITCH"), "{s}");
        assert!(s.contains("TEST/7"));
        assert!(s.contains("76.9%"));
    }

    #[test]
    fn sums_dropped_markers() {
        let t = trace(vec![
            ev(0, 1, MajorId::CONTROL, control::DROPPED, &[5]),
            ev(0, 2, MajorId::CONTROL, control::DROPPED, &[3]),
            ev(0, 3, MajorId::TEST, 1, &[]),
        ]);
        let s = EventStats::compute(&t);
        assert_eq!((s.total, s.dropped), (1, 8));
        assert!(s.render(&t).contains(", 8 event(s) dropped to overrun\n"));
    }

    #[test]
    fn empty_trace() {
        let s = EventStats::compute(&trace(vec![]));
        assert_eq!(s.total, 0);
        assert_eq!(s.events_per_sec(), 0.0);
    }
}
