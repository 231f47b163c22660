//! Expression evaluation over a [`Trace`].
//!
//! [`Query`] carries a built [`EventIndex`] and evaluates aggregations two
//! ways: [`Query::eval`] extracts conservative time/CPU bounds from the
//! predicate's top-level conjunction and walks only the index candidates,
//! while [`Query::eval_naive`] is the deliberately simple reference
//! interpreter that scans every event. Both must always agree — the
//! property-test suite generates random expressions and random streams and
//! asserts exactly that.

use crate::expr::{Agg, Assertion, CmpOp, Field, Pred, SpanSpec};
use crate::index::{Bounds, EventIndex};
use crate::source::{QueryError, TraceSource};
use ktrace_core::reader::RawEvent;
use ktrace_io::Trace;
use std::collections::HashMap;

/// Reads one field of one event; `None` when the payload word is absent.
pub fn field_value(e: &RawEvent, field: Field) -> Option<u64> {
    match field {
        Field::Major => Some(e.major.raw() as u64),
        Field::Minor => Some(e.minor as u64),
        Field::Cpu => Some(e.cpu as u64),
        Field::Time => Some(e.time),
        Field::Payload(i) => e.payload.get(i).copied(),
    }
}

/// Whether `pred` holds for `e`. A comparison against an absent payload
/// word is false (and so its negation is true).
pub fn pred_matches(pred: &Pred, e: &RawEvent) -> bool {
    match pred {
        Pred::True => true,
        Pred::Cmp(field, op, v) => field_value(e, *field).is_some_and(|a| op.holds(a, *v)),
        Pred::Not(p) => !pred_matches(p, e),
        Pred::And(a, b) => pred_matches(a, e) && pred_matches(b, e),
        Pred::Or(a, b) => pred_matches(a, e) || pred_matches(b, e),
    }
}

/// Conservative candidate bounds for `pred`: only comparisons in the
/// TOP-LEVEL `&` chain narrow the window — anything under `|` or `!` could
/// admit events outside it, so those subtrees are ignored. The result may
/// over-approximate; the full predicate is always re-applied.
pub fn pred_bounds(pred: &Pred) -> Bounds {
    let mut b = Bounds::unbounded();
    collect_bounds(pred, &mut b);
    if let Some(hi) = b.t_hi {
        if hi <= b.t_lo {
            b.empty = true;
        }
    }
    b
}

fn collect_bounds(pred: &Pred, b: &mut Bounds) {
    match pred {
        Pred::And(l, r) => {
            collect_bounds(l, b);
            collect_bounds(r, b);
        }
        Pred::Cmp(Field::Time, op, v) => match op {
            CmpOp::Eq => {
                b.t_lo = b.t_lo.max(*v);
                tighten_hi(b, v.checked_add(1));
            }
            CmpOp::Lt => tighten_hi(b, Some(*v)),
            // `time <= u64::MAX` excludes nothing, so a saturated bound
            // simply stays unbounded.
            CmpOp::Le => tighten_hi(b, v.checked_add(1)),
            CmpOp::Gt => match v.checked_add(1) {
                Some(lo) => b.t_lo = b.t_lo.max(lo),
                None => b.empty = true,
            },
            CmpOp::Ge => b.t_lo = b.t_lo.max(*v),
            CmpOp::Ne => {}
        },
        Pred::Cmp(Field::Cpu, CmpOp::Eq, v) => match b.cpu {
            Some(c) if c != *v => b.empty = true,
            _ => b.cpu = Some(*v),
        },
        _ => {}
    }
}

fn tighten_hi(b: &mut Bounds, hi: Option<u64>) {
    if let Some(hi) = hi {
        b.t_hi = Some(b.t_hi.map_or(hi, |old| old.min(hi)));
    }
}

/// Result of pairing a [`SpanSpec`] over a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanScan {
    /// Longest closed open→close duration in ticks.
    pub max_duration: u64,
    /// Closes with no matching open, plus opens never closed.
    pub unpaired: u64,
}

/// Pairs open/close endpoints per key (LIFO when one key nests) over
/// `events`, which must be in canonical order.
pub fn scan_spans<'a, I>(events: I, s: &SpanSpec) -> SpanScan
where
    I: IntoIterator<Item = &'a RawEvent>,
{
    let mut stacks: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut scan = SpanScan::default();
    for e in events {
        if e.major != s.major {
            continue;
        }
        let Some(&key) = e.payload.get(s.key) else {
            continue;
        };
        if e.minor == s.open {
            stacks.entry(key).or_default().push(e.time);
        } else if e.minor == s.close {
            match stacks.get_mut(&key).and_then(|stack| stack.pop()) {
                Some(opened_at) => {
                    scan.max_duration = scan.max_duration.max(e.time.saturating_sub(opened_at));
                }
                None => scan.unpaired += 1,
            }
        }
    }
    scan.unpaired += stacks.values().map(|stack| stack.len() as u64).sum::<u64>();
    scan
}

/// A queryable trace: one [`Trace`] plus its index.
#[derive(Debug, Clone)]
pub struct Query {
    trace: Trace,
    index: EventIndex,
}

impl Query {
    /// Wraps an already-loaded trace.
    pub fn new(trace: Trace) -> Query {
        let index = EventIndex::build(&trace);
        Query { trace, index }
    }

    /// Loads a source and wraps the result.
    pub fn over(source: &mut dyn TraceSource) -> Result<Query, QueryError> {
        Ok(Query::new(source.load()?))
    }

    /// The underlying trace, for the tools that take one.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Evaluates via the index: candidates come from the extracted
    /// time/CPU bounds, then the full predicate re-filters them.
    pub fn eval(&self, agg: &Agg) -> u64 {
        self.eval_with(agg, |pred| {
            let bounds = pred_bounds(pred);
            self.index.candidates(&self.trace, &bounds)
        })
    }

    /// Evaluates by scanning every event — the reference semantics the
    /// indexed path must reproduce.
    pub fn eval_naive(&self, agg: &Agg) -> u64 {
        self.eval_with(agg, |_| Box::new(self.trace.events.iter()))
    }

    /// Evaluates the assertion (indexed), returning the measured value and
    /// whether the bound holds.
    pub fn check(&self, assertion: &Assertion) -> (u64, bool) {
        let actual = self.eval(&assertion.agg);
        (actual, assertion.holds(actual))
    }

    fn eval_with<'a, F>(&'a self, agg: &Agg, select: F) -> u64
    where
        F: Fn(&Pred) -> Box<dyn Iterator<Item = &'a RawEvent> + 'a>,
    {
        let matching = |pred: &Pred| {
            let pred = pred.clone();
            select(&pred)
                .filter(move |e| pred_matches(&pred, e))
                .collect::<Vec<&RawEvent>>()
        };
        match agg {
            Agg::Count(p) => matching(p).len() as u64,
            Agg::Sum(p, field) => matching(p)
                .iter()
                .filter_map(|e| field_value(e, *field))
                .fold(0u64, |acc, v| acc.wrapping_add(v)),
            Agg::Max(p, field) => matching(p)
                .iter()
                .filter_map(|e| field_value(e, *field))
                .max()
                .unwrap_or(0),
            Agg::Rate(p) => {
                let n = matching(p).len() as u128;
                let span = self.trace.span().max(1) as u128;
                let per_sec = n * self.trace.ticks_per_sec as u128 / span;
                u64::try_from(per_sec).unwrap_or(u64::MAX)
            }
            Agg::MaxGap(p) => {
                let events = matching(p);
                events
                    .windows(2)
                    .map(|w| w[1].time.saturating_sub(w[0].time))
                    .max()
                    .unwrap_or(0)
            }
            Agg::MaxDuration(s) => scan_spans(self.trace.events.iter(), s).max_duration,
            Agg::Unpaired(s) => scan_spans(self.trace.events.iter(), s).unpaired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{parse_agg, parse_pred};
    use ktrace_format::{EventRegistry, MajorId};

    fn ev(cpu: usize, time: u64, major: MajorId, minor: u16, payload: &[u64]) -> RawEvent {
        RawEvent {
            cpu,
            seq: 0,
            offset: 0,
            time,
            ts32: time as u32,
            major,
            minor,
            payload: payload.to_vec(),
        }
    }

    fn lock_trace() -> Query {
        let events = vec![
            ev(0, 100, MajorId::LOCK, 2, &[0xA, 1]), // acquire A
            ev(0, 150, MajorId::LOCK, 2, &[0xB, 1]), // acquire B
            ev(1, 180, MajorId::SCHED, 1, &[1, 2, 9]),
            ev(0, 200, MajorId::LOCK, 3, &[0xB, 1]), // release B (held 50)
            ev(0, 400, MajorId::LOCK, 3, &[0xA, 1]), // release A (held 300)
            ev(1, 500, MajorId::LOCK, 3, &[0xC, 2]), // release never opened
        ];
        Query::new(Trace::new(events, EventRegistry::with_builtin(), 1_000))
    }

    #[test]
    fn count_indexed_agrees_with_naive() {
        let q = lock_trace();
        for text in [
            "count(true)",
            "count(major == LOCK)",
            "count(major == LOCK & time >= 150 & time < 401)",
            "count(cpu == 1)",
            "count(cpu == 1 & cpu == 0)",
            "count(time > 100 & time <= 200)",
            "count(!(major == LOCK) | payload[2] == 9)",
            "sum(major == LOCK, payload[1])",
            "max(true, time)",
            "rate(major == LOCK)",
            "max_gap(major == LOCK)",
        ] {
            let agg = parse_agg(text).unwrap();
            assert_eq!(q.eval(&agg), q.eval_naive(&agg), "{text}");
        }
    }

    #[test]
    fn concrete_values() {
        let q = lock_trace();
        let n = |t: &str| q.eval(&parse_agg(t).unwrap());
        assert_eq!(n("count(major == LOCK)"), 5);
        assert_eq!(n("count(major == LOCK & minor == 3)"), 3);
        assert_eq!(n("count(time >= 150 & time < 400)"), 3);
        assert_eq!(n("sum(minor == 2, payload[1])"), 2);
        assert_eq!(n("max(major == LOCK, payload[0])"), 0xC);
        // span 100..500 = 400 ticks at 1000/s → 6 lock events in 0.4 s.
        assert_eq!(n("rate(major == LOCK)"), 5 * 1_000 / 400);
        assert_eq!(n("max_gap(major == LOCK)"), 200);
        assert_eq!(n("max_duration(span(LOCK, 2 -> 3, key = payload[0]))"), 300);
        assert_eq!(n("unpaired(span(LOCK, 2 -> 3, key = payload[0]))"), 1);
    }

    #[test]
    fn missing_payload_comparisons_are_false() {
        let q = lock_trace();
        // SCHED event has payload[2]; LOCK events do not.
        assert_eq!(q.eval(&parse_agg("count(payload[2] == 9)").unwrap()), 1);
        // Negation of an absent-field comparison is true.
        assert_eq!(q.eval(&parse_agg("count(!(payload[2] == 9))").unwrap()), 5);
    }

    #[test]
    fn bounds_extraction_is_top_level_only() {
        let p = parse_pred("time >= 10 & (time < 5 | cpu == 1)").unwrap();
        let b = pred_bounds(&p);
        assert_eq!(b.t_lo, 10);
        assert_eq!(b.t_hi, None, "Or subtree must not narrow the window");
        assert_eq!(b.cpu, None);

        let p = parse_pred("time >= 10 & time < 20 & cpu == 1").unwrap();
        let b = pred_bounds(&p);
        assert_eq!((b.t_lo, b.t_hi, b.cpu), (10, Some(20), Some(1)));

        let p = parse_pred("time == 7").unwrap();
        let b = pred_bounds(&p);
        assert_eq!((b.t_lo, b.t_hi), (7, Some(8)));

        assert!(pred_bounds(&parse_pred("time > 18446744073709551615").unwrap()).empty);
        assert!(pred_bounds(&parse_pred("cpu == 0 & cpu == 1").unwrap()).empty);
        assert!(pred_bounds(&parse_pred("time >= 9 & time < 9").unwrap()).empty);
        assert!(!pred_bounds(&parse_pred("time <= 18446744073709551615").unwrap()).empty);
    }

    #[test]
    fn assertion_check_reports_actual() {
        let q = lock_trace();
        let a = crate::expr::parse_assertion("unpaired(span(LOCK, 2 -> 3, key = payload[0])) == 0")
            .unwrap();
        assert_eq!(q.check(&a), (1, false));
        let a = crate::expr::parse_assertion("count(major == SCHED) == 1").unwrap();
        assert_eq!(q.check(&a), (1, true));
    }
}
