//! Expression evaluation over a [`Trace`].
//!
//! One evaluator: a [`Fold`] is an aggregation's accumulator, fed one event
//! at a time in canonical order. [`Query::eval`] runs one fold over the
//! candidates the index yields for the predicate's conservative bounds;
//! [`Spec::check`](crate::Spec::check) runs every property's fold over one
//! walk of the trace. The deliberately simple reference interpreter —
//! collect the matching events, then aggregate — lives with the property
//! tests that hold `Fold` to it (`tests/expr_props.rs`) and shares nothing
//! with `Fold` but [`pred_matches`] and [`field_value`]: the suite generates
//! random expressions and random streams and asserts the two always agree.

use crate::expr::{Agg, CmpOp, Field, Pred};
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
/// TOP-LEVEL `&` chain narrow the time window or pin the CPU or the major —
/// anything under `|` or `!` could admit events outside them, so those
/// subtrees are ignored. The result may over-approximate; the full
/// predicate is always re-applied.
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
        Pred::Cmp(Field::Cpu, CmpOp::Eq, v) => pin(&mut b.cpu, *v, &mut b.empty),
        Pred::Cmp(Field::Major, CmpOp::Eq, v) => pin(&mut b.major, *v, &mut b.empty),
        _ => {}
    }
}

/// Pins `slot` to `v`; two different pins under one `&` match nothing.
fn pin(slot: &mut Option<u64>, v: u64, empty: &mut bool) {
    match *slot {
        Some(pinned) if pinned != v => *empty = true,
        _ => *slot = Some(v),
    }
}

fn tighten_hi(b: &mut Bounds, hi: Option<u64>) {
    if let Some(hi) = hi {
        b.t_hi = Some(b.t_hi.map_or(hi, |old| old.min(hi)));
    }
}

/// One aggregation being evaluated: its accumulator, fed events one at a
/// time in canonical order by [`offer`](Fold::offer) and read by
/// [`finish`](Fold::finish). State is bounded by the aggregation, not the
/// trace: a counter, a watermark, or the open spans per key.
#[derive(Debug)]
pub struct Fold<'a> {
    agg: &'a Agg,
    bounds: Bounds,
    acc: Acc,
}

#[derive(Debug)]
enum Acc {
    /// `count` and `rate`: matches so far.
    Count(u64),
    /// `sum`: wrapping sum of the field over matches that have it.
    Sum(u64),
    /// `max`: largest field value over matches that have it.
    Max(u64),
    /// `max_gap`: the previous match's time, and the widest gap so far.
    Gap { last: Option<u64>, widest: u64 },
    /// `max_duration` and `unpaired`: open times per key, innermost last.
    Spans {
        open: HashMap<u64, Vec<u64>>,
        longest: u64,
        unopened: u64,
    },
}

impl<'a> Fold<'a> {
    /// An empty accumulator for `agg`.
    pub fn new(agg: &'a Agg) -> Fold<'a> {
        let (bounds, acc) = match agg {
            Agg::Count(p) | Agg::Rate(p) => (pred_bounds(p), Acc::Count(0)),
            Agg::Sum(p, _) => (pred_bounds(p), Acc::Sum(0)),
            Agg::Max(p, _) => (pred_bounds(p), Acc::Max(0)),
            Agg::MaxGap(p) => (
                pred_bounds(p),
                Acc::Gap {
                    last: None,
                    widest: 0,
                },
            ),
            Agg::MaxDuration(s) | Agg::Unpaired(s) => (
                // A span's endpoints all carry its major.
                Bounds {
                    major: Some(u64::from(s.major.raw())),
                    ..Bounds::unbounded()
                },
                Acc::Spans {
                    open: HashMap::new(),
                    longest: 0,
                    unopened: 0,
                },
            ),
        };
        Fold { agg, bounds, acc }
    }

    /// Bounds outside which no event can move this fold: offering only the
    /// events inside them is an optimisation, never a requirement.
    pub fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    /// Feeds one event. Events must arrive in canonical order; one the
    /// aggregation does not match leaves the fold as it was.
    pub fn offer(&mut self, e: &RawEvent) {
        match (self.agg, &mut self.acc) {
            (Agg::Count(p) | Agg::Rate(p), Acc::Count(n)) => {
                if pred_matches(p, e) {
                    *n += 1;
                }
            }
            (Agg::Sum(p, field), Acc::Sum(sum)) => {
                if pred_matches(p, e) {
                    *sum = sum.wrapping_add(field_value(e, *field).unwrap_or(0));
                }
            }
            (Agg::Max(p, field), Acc::Max(max)) => {
                if pred_matches(p, e) {
                    *max = (*max).max(field_value(e, *field).unwrap_or(0));
                }
            }
            (Agg::MaxGap(p), Acc::Gap { last, widest }) => {
                if pred_matches(p, e) {
                    if let Some(prev) = last.replace(e.time) {
                        *widest = (*widest).max(e.time.saturating_sub(prev));
                    }
                }
            }
            (
                Agg::MaxDuration(s) | Agg::Unpaired(s),
                Acc::Spans {
                    open,
                    longest,
                    unopened,
                },
            ) => {
                if e.major != s.major {
                    return;
                }
                let Some(&key) = e.payload.get(s.key) else {
                    return;
                };
                if e.minor == s.open {
                    open.entry(key).or_default().push(e.time);
                } else if e.minor == s.close {
                    match open.get_mut(&key).and_then(Vec::pop) {
                        Some(opened_at) => {
                            *longest = (*longest).max(e.time.saturating_sub(opened_at));
                        }
                        None => *unopened += 1,
                    }
                }
            }
            _ => unreachable!("Fold::new pairs every aggregation with its accumulator"),
        }
    }

    /// The aggregation's value over the events offered. `trace` supplies
    /// what `rate` divides by: the data span and the clock rate.
    pub fn finish(self, trace: &Trace) -> u64 {
        match (self.agg, self.acc) {
            (Agg::Rate(_), Acc::Count(n)) => {
                let span = trace.span().max(1) as u128;
                let per_sec = n as u128 * trace.ticks_per_sec as u128 / span;
                u64::try_from(per_sec).unwrap_or(u64::MAX)
            }
            (_, Acc::Count(v) | Acc::Sum(v) | Acc::Max(v)) => v,
            (_, Acc::Gap { widest, .. }) => widest,
            (Agg::MaxDuration(_), Acc::Spans { longest, .. }) => longest,
            (_, Acc::Spans { open, unopened, .. }) => {
                unopened + open.values().map(|stack| stack.len() as u64).sum::<u64>()
            }
        }
    }
}

/// A queryable trace: one [`Trace`] plus its index.
#[derive(Debug, Clone)]
pub struct Query {
    trace: Trace,
    index: EventIndex,
}

impl Query {
    /// Wraps an already-loaded trace. The index costs nothing until a
    /// CPU-pinned predicate asks for its per-CPU lists.
    pub fn new(trace: Trace) -> Query {
        Query {
            trace,
            index: EventIndex::default(),
        }
    }

    /// Loads a source and wraps the result.
    pub fn over(source: &mut dyn TraceSource) -> Result<Query, QueryError> {
        Ok(Query::new(source.load()?))
    }

    /// The underlying trace, for the tools that take one.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Evaluates one [`Fold`] over the index's candidates for the
    /// aggregation's bounds.
    pub fn eval(&self, agg: &Agg) -> u64 {
        let mut fold = Fold::new(agg);
        for e in self.index.candidates(&self.trace, fold.bounds()) {
            fold.offer(e);
        }
        fold.finish(&self.trace)
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
            payload: payload.into(),
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
        assert_eq!(q.eval(&a.agg), 1);
        assert!(!a.holds(1));
        let a = crate::expr::parse_assertion("count(major == SCHED) == 1").unwrap();
        assert_eq!(q.eval(&a.agg), 1);
        assert!(a.holds(1));
    }
}
