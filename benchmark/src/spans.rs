//! Spans recorded from outside, around the calls into each layer.
//!
//! A span is `name = <layer>.<fn>`, start, end, and the span that caused it.
//! They stay in memory while a workload runs and are written out once, when
//! it ends. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

/// One traced run's spans. Spans opened on the recording thread nest by a
/// stack; intervals timed elsewhere (sender threads) are [`add`](Spans::add)ed
/// under whatever is open, and may overlap each other.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since this recorder's epoch; the clock of every span.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an `Instant` taken on another thread to the span clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.push(name, self.now(), 0);
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: u32) -> u64 {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Records an already timed interval under the innermost open span.
    pub fn add(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        self.push(name, start_ns, end_ns.max(start_ns))
    }

    /// Records an already timed interval under `parent`, which need not be
    /// open any more.
    pub fn add_child(&mut self, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.push(name, start_ns, end_ns.max(start_ns));
        self.spans[id as usize].parent = Some(parent);
    }

    /// Times one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = call();
        self.add(name, start, self.now());
        out
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
        });
        id
    }

    pub fn get(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time of every span, indexed by span id.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// The part of `root`'s interval that the spans it caused cover: what
    /// the layers account for. The rest is the root's own self time, the
    /// remainder nobody claims. Children running in parallel are not counted
    /// twice, so this never exceeds the root's duration.
    pub fn accounted_under(&self, root: u32) -> u64 {
        let r = self.get(root);
        (r.end_ns - r.start_ns) - self.self_times()[root as usize]
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\"}}{comma}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// How much of a workload's untraced time its layers' spans account for,
/// summed over the passes made.
#[derive(Default, Clone, Copy)]
pub struct Ledger {
    /// What the spans under the traced passes' roots cover.
    pub accounted_ns: f64,
    /// The traced passes' roots.
    pub traced_ns: f64,
    /// The same passes, untraced.
    pub untraced_ns: f64,
}

impl Ledger {
    /// Adds one traced pass, rooted at the closed span `root`, and the
    /// untraced pass it is compared with.
    pub fn add_pass(&mut self, spans: &Spans, root: u32, untraced_ns: f64) {
        let r = spans.get(root);
        self.accounted_ns += spans.accounted_under(root) as f64;
        self.traced_ns += (r.end_ns - r.start_ns) as f64;
        self.untraced_ns += untraced_ns;
    }

    /// The remainder nobody claims: 1 − accounted / untraced.
    pub fn unaccounted_share(&self) -> f64 {
        1.0 - self.accounted_ns / self.untraced_ns
    }

    /// What tracing cost: traced / untraced − 1.
    pub fn overhead_share(&self) -> f64 {
        self.traced_ns / self.untraced_ns - 1.0
    }
}

/// Self time per span: duration minus the union of the children's
/// intervals, each clipped to the parent. Children may nest further (their
/// own children do not count twice) and may overlap one another (an
/// overlapped stretch counts once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30; root ⊃ c 70..90
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_the_overlap_once() {
        // Two senders in parallel under one ingest span, one running past
        // the parent's end, plus a child wholly inside another.
        let spans = [
            span("ingest", 100, 200, None),
            span("send", 110, 160, Some(0)),
            span("send", 140, 230, Some(0)),
            span("send", 120, 130, Some(0)),
        ];
        // Covered: 110..200 = 90 of the parent's 100.
        assert_eq!(self_times(&spans)[0], 10);
        assert_eq!(self_times(&spans)[1..], [50, 90, 10]);
    }

    #[test]
    fn recorder_nests_by_stack_and_accounts_descendants() {
        let mut s = Spans::new();
        let root = s.open("root");
        let a = s.open("a");
        s.add("leaf", 0, 0);
        s.close(a);
        s.close(root);
        let outside = s.add("probe", 1, 2);
        assert_eq!(s.get(a).parent, Some(root));
        assert_eq!(s.get(2).parent, Some(a));
        assert_eq!(s.get(outside).parent, None);
        let r = s.get(root);
        assert_eq!(
            s.accounted_under(root) + s.self_times()[root as usize],
            r.end_ns - r.start_ns,
            "a root's interval is what its children cover plus its own self time"
        );
    }
}
