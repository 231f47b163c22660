//! The [`Trace`] model: what every way of reading events loads into, and
//! what every tool consumes.
//!
//! A trace is the events in canonical [`RawEvent::order_key`] order plus the
//! self-describing registry and the clock rate. Its origin, end and span are
//! those of its **data** events (everything outside the `CONTROL` major):
//! control events are transport artifacts — a drained file carries anchors
//! and trailing fillers that a live snapshot of the same run does not — so
//! measuring from them would make the same run look longer through one
//! source than through another.

use crate::error::IoError;
use crate::reader::TraceFileReader;
use ktrace_core::reader::RawEvent;
use ktrace_core::TraceLogger;
use ktrace_format::{EventRegistry, MajorId};
use std::path::Path;

/// A merged, canonically ordered event stream with its registry and clock
/// rate.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Events in [`RawEvent::order_key`] order.
    pub events: Vec<RawEvent>,
    /// The self-describing registry (builtin-only when the source's header
    /// was unreadable).
    pub registry: EventRegistry,
    /// Clock rate of the timestamps.
    pub ticks_per_sec: u64,
}

impl Trace {
    /// Builds a trace, normalizing event order. Sources differ in raw order
    /// (k-way merge vs. per-buffer dump vs. salvage resync vs. several
    /// shards); one canonical order makes every result source-independent.
    pub fn new(mut events: Vec<RawEvent>, registry: EventRegistry, ticks_per_sec: u64) -> Trace {
        events.sort_by_key(RawEvent::order_key);
        Trace::from_ordered(events, registry, ticks_per_sec)
    }

    /// A trace of events already in [`RawEvent::order_key`] order: for the
    /// loaders whose merge vouches for its own output
    /// ([`LazyMerge::drain_into`](crate::merge::LazyMerge::drain_into)), so
    /// that a million events are not scanned again to learn it. Anyone who
    /// cannot vouch calls [`Trace::new`].
    pub(crate) fn from_ordered(
        events: Vec<RawEvent>,
        registry: EventRegistry,
        ticks_per_sec: u64,
    ) -> Trace {
        debug_assert!(events
            .windows(2)
            .all(|w| w[0].order_key() <= w[1].order_key()));
        Trace {
            events,
            registry,
            ticks_per_sec,
        }
    }

    /// Loads a trace file through the strict reader.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Trace, IoError> {
        TraceFileReader::open(path)?.load(None)
    }

    /// Snapshots a live logger (flight-recorder view): whatever is in the
    /// per-CPU rings right now, undrained. The dump is control-free by
    /// construction (`dump_last` strips fillers, anchors and heartbeats as
    /// debugger noise).
    pub fn from_logger(logger: &TraceLogger, ticks_per_sec: u64) -> Trace {
        Trace::new(
            logger.dump_last(usize::MAX, None).events,
            logger.registry(),
            ticks_per_sec,
        )
    }

    /// Events outside the `CONTROL` major: no anchors, fillers, drop
    /// markers, or heartbeats.
    pub fn data_events(&self) -> impl DoubleEndedIterator<Item = &RawEvent> {
        self.events.iter().filter(|e| !e.is_control())
    }

    /// First data-event timestamp (the display origin).
    pub fn origin(&self) -> u64 {
        self.data_events().next().map_or(0, |e| e.time)
    }

    /// Last data-event timestamp.
    pub fn end(&self) -> u64 {
        self.data_events().next_back().map_or(0, |e| e.time)
    }

    /// Data span in ticks.
    pub fn span(&self) -> u64 {
        self.end().saturating_sub(self.origin())
    }

    /// Ticks → seconds relative to the origin.
    pub fn seconds(&self, t: u64) -> f64 {
        t.saturating_sub(self.origin()) as f64 / self.ticks_per_sec as f64
    }

    /// Narrows to the events with `t0 <= time < t1` (absolute ticks).
    pub fn window(mut self, t0: u64, t1: u64) -> Trace {
        self.events.retain(|e| e.time >= t0 && e.time < t1);
        self
    }

    /// Events of one major class.
    pub fn of_major(&self, major: MajorId) -> impl Iterator<Item = &RawEvent> {
        self.events.iter().filter(move |e| e.major == major)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(cpu: usize, time: u64, minor: u16) -> RawEvent {
        RawEvent {
            cpu,
            seq: 0,
            offset: 0,
            time,
            ts32: time as u32,
            major: MajorId::TEST,
            minor,
            payload: vec![].into(),
        }
    }

    fn trace(events: Vec<RawEvent>) -> Trace {
        Trace::new(events, EventRegistry::with_builtin(), 1_000_000_000)
    }

    #[test]
    fn new_normalizes_order_and_spans_data_only() {
        let mut anchor = raw(0, 5, 0);
        anchor.major = MajorId::CONTROL;
        let mut filler = raw(0, 999, 0);
        filler.major = MajorId::CONTROL;
        let t = trace(vec![
            raw(1, 30, 1),
            raw(0, 10, 2),
            filler,
            raw(0, 30, 3),
            anchor,
        ]);
        let times: Vec<(u64, usize)> = t.events.iter().map(|e| (e.time, e.cpu)).collect();
        assert_eq!(times, vec![(5, 0), (10, 0), (30, 0), (30, 1), (999, 0)]);
        // Control events stretch neither end of the data span.
        assert_eq!(t.origin(), 10);
        assert_eq!(t.end(), 30);
        assert_eq!(t.span(), 20);
        assert_eq!(t.data_events().count(), 3);
    }

    #[test]
    fn events_sorted_and_origin_end() {
        let t = trace(vec![raw(0, 300, 1), raw(0, 100, 2), raw(1, 200, 3)]);
        assert_eq!(t.origin(), 100);
        assert_eq!(t.end(), 300);
        assert!(t.events.windows(2).all(|w| w[0].time <= w[1].time));
        assert!((t.seconds(200) - 1e-7).abs() < 1e-12);
    }

    #[test]
    fn equal_times_order_by_position() {
        let at = |cpu, seq, offset| RawEvent {
            seq,
            offset,
            ..raw(cpu, 7, 0)
        };
        let t = trace(vec![at(1, 0, 3), at(0, 1, 0), at(0, 0, 9), at(0, 0, 4)]);
        let order: Vec<(usize, u64, usize)> =
            t.events.iter().map(|e| (e.cpu, e.seq, e.offset)).collect();
        assert_eq!(order, vec![(0, 0, 4), (0, 0, 9), (0, 1, 0), (1, 0, 3)]);
    }

    #[test]
    fn window_filters_absolute_ticks() {
        let t = trace((0..10).map(|i| raw(0, i * 100, i as u16)).collect());
        let w = t.clone().window(250, 650);
        assert_eq!(w.events.len(), 4); // 300,400,500,600
        assert_eq!(w.events[0].minor, 3);
        // Half-open: t0 is in, t1 is out.
        assert_eq!(t.window(300, 600).events.len(), 3);
    }

    #[test]
    fn empty_trace_has_zero_origin_and_span() {
        let t = trace(vec![]);
        assert_eq!((t.origin(), t.end(), t.span()), (0, 0, 0));
        assert_eq!(t.seconds(5), 5e-9);
    }
}
