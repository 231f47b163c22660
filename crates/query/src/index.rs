//! Index layer over a loaded [`Trace`].
//!
//! The on-disk reader already exploits §3.2 alignment points to skip whole
//! records; this index gives the same two access patterns — per-CPU slices
//! and time-range seeks — over an *in-memory* trace, whatever source it came
//! from. Because [`Trace::new`] sorts globally by `(time, cpu, seq,
//! offset)`, time bounds become binary searches over the event array, and a
//! per-CPU position list (positions ascend, and the global order is
//! time-major, so each list is time-sorted too) makes `cpu == k` queries
//! touch only that CPU's events. Time seeks need nothing built; the per-CPU
//! lists are built by the first request that pins a CPU.

use ktrace_core::reader::RawEvent;
use ktrace_io::Trace;
use std::sync::OnceLock;

/// Conservative candidate bounds extracted from a predicate: a time window,
/// an optional exact CPU and an optional exact major. `hi` is exclusive;
/// `None` means unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Inclusive lower time bound.
    pub t_lo: u64,
    /// Exclusive upper time bound (`None` = unbounded above).
    pub t_hi: Option<u64>,
    /// Exact CPU, when the predicate pins one.
    pub cpu: Option<u64>,
    /// Exact major (raw value), when the predicate pins one. The index has
    /// no per-major list, so [`EventIndex::candidates`] ignores it; a walk
    /// feeding several folds uses it to pick the folds an event can move.
    pub major: Option<u64>,
    /// True when the bounds are known unsatisfiable (e.g. `time > u64::MAX`).
    pub empty: bool,
}

impl Bounds {
    /// Bounds that exclude nothing.
    pub fn unbounded() -> Bounds {
        Bounds {
            t_lo: 0,
            t_hi: None,
            cpu: None,
            major: None,
            empty: false,
        }
    }

    /// True when `t` falls inside the window.
    fn admits_time(&self, t: u64) -> bool {
        t >= self.t_lo && self.t_hi.is_none_or(|hi| t < hi)
    }
}

/// Per-CPU and time-range random access over one [`Trace`]. The default
/// index is unbuilt: its per-CPU lists are filled in by the first
/// [`candidates`](EventIndex::candidates) call that pins a CPU, from the
/// trace that call passes — so one index serves one trace.
#[derive(Debug, Clone, Default)]
pub struct EventIndex {
    /// For each CPU (dense, indexed by `cpu`), the ascending positions of
    /// its events in the trace's global order.
    by_cpu: OnceLock<Vec<Vec<u32>>>,
}

impl EventIndex {
    /// Builds the index for `trace`, per-CPU lists included.
    pub fn build(trace: &Trace) -> EventIndex {
        let index = EventIndex::default();
        index.by_cpu(trace);
        index
    }

    fn by_cpu(&self, trace: &Trace) -> &[Vec<u32>] {
        self.by_cpu.get_or_init(|| {
            let ncpus = trace.events.iter().map(|e| e.cpu + 1).max().unwrap_or(0);
            let mut by_cpu = vec![Vec::new(); ncpus];
            for (pos, e) in trace.events.iter().enumerate() {
                by_cpu[e.cpu].push(pos as u32);
            }
            by_cpu
        })
    }

    /// The contiguous global range of events inside `[t_lo, t_hi)`.
    fn time_seek(&self, trace: &Trace, bounds: &Bounds) -> std::ops::Range<usize> {
        let start = trace.events.partition_point(|e| e.time < bounds.t_lo);
        let stop = match bounds.t_hi {
            Some(hi) => trace.events.partition_point(|e| e.time < hi),
            None => trace.events.len(),
        };
        start..stop.max(start)
    }

    /// Yields candidate events for `bounds`, in the trace's canonical order.
    /// Every event inside the bounds is yielded; the caller re-applies the
    /// full predicate, so over-approximation is fine and under-approximation
    /// is a bug.
    pub fn candidates<'a>(
        &'a self,
        trace: &'a Trace,
        bounds: &Bounds,
    ) -> Box<dyn Iterator<Item = &'a RawEvent> + 'a> {
        if bounds.empty {
            return Box::new(std::iter::empty());
        }
        if let Some(cpu) = bounds.cpu {
            // A CPU pin restricts to one (usually much shorter) position
            // list; seek the window within it by binary search.
            let Ok(cpu) = usize::try_from(cpu) else {
                return Box::new(std::iter::empty());
            };
            let Some(positions) = self.by_cpu(trace).get(cpu) else {
                return Box::new(std::iter::empty());
            };
            let lo = bounds.t_lo;
            let start = positions.partition_point(|&p| trace.events[p as usize].time < lo);
            let bounds = *bounds;
            return Box::new(
                positions[start..]
                    .iter()
                    .map(move |&p| &trace.events[p as usize])
                    .take_while(move |e| bounds.admits_time(e.time)),
            );
        }
        let range = self.time_seek(trace, bounds);
        Box::new(trace.events[range].iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_format::{EventRegistry, MajorId};

    fn sample() -> Trace {
        let events = (0..20u64)
            .map(|i| RawEvent {
                cpu: (i % 3) as usize,
                seq: 0,
                offset: i as usize,
                time: i * 5,
                ts32: (i * 5) as u32,
                major: MajorId::TEST,
                minor: i as u16,
                payload: vec![].into(),
            })
            .collect();
        Trace::new(events, EventRegistry::with_builtin(), 1_000)
    }

    #[test]
    fn time_seek_matches_linear_filter() {
        let s = sample();
        let idx = EventIndex::build(&s);
        let bounds = Bounds {
            t_lo: 12,
            t_hi: Some(61),
            cpu: None,
            major: None,
            empty: false,
        };
        let seek: Vec<u64> = idx.candidates(&s, &bounds).map(|e| e.time).collect();
        let linear: Vec<u64> = s
            .events
            .iter()
            .filter(|e| e.time >= 12 && e.time < 61)
            .map(|e| e.time)
            .collect();
        assert_eq!(seek, linear);
        assert_eq!(seek.first(), Some(&15));
        assert_eq!(seek.last(), Some(&60));
    }

    #[test]
    fn cpu_pin_touches_only_that_cpu() {
        let s = sample();
        let idx = EventIndex::build(&s);
        let bounds = Bounds {
            t_lo: 10,
            t_hi: Some(80),
            cpu: Some(1),
            major: None,
            empty: false,
        };
        let got: Vec<u64> = idx.candidates(&s, &bounds).map(|e| e.time).collect();
        let want: Vec<u64> = s
            .events
            .iter()
            .filter(|e| e.cpu == 1 && e.time >= 10 && e.time < 80)
            .map(|e| e.time)
            .collect();
        assert_eq!(got, want);
        assert!(!want.is_empty());
    }

    #[test]
    fn empty_and_unknown_cpu_yield_nothing() {
        let s = sample();
        let idx = EventIndex::build(&s);
        let mut b = Bounds::unbounded();
        b.empty = true;
        assert_eq!(idx.candidates(&s, &b).count(), 0);
        let mut b = Bounds::unbounded();
        b.cpu = Some(99);
        assert_eq!(idx.candidates(&s, &b).count(), 0);
    }
}
