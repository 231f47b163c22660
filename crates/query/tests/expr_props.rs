//! Property tests for the query expression language.
//!
//! Two invariants hold for every expressible query:
//!
//! 1. **Round-trip**: the canonical printer output re-parses to the
//!    identical AST (`parse(print(x)) == x`).
//! 2. **Agreement**: the indexed evaluator and the naive reference
//!    interpreter return the same value on any event stream — one fold at
//!    a time through `Query::eval`, and every property of a spec at once
//!    through `Spec::check`'s single walk.
//!
//! The vendored proptest stub has no recursive strategies, so ASTs are
//! built deterministically from a generated seed via a splitmix64 word
//! stream — every seed maps to one expression, and the proptest runner
//! supplies the seeds.

use ktrace_core::reader::RawEvent;
use ktrace_format::{EventRegistry, MajorId};
use ktrace_query::eval::field_value;
use ktrace_query::{
    parse_agg, parse_assertion, parse_pred, pred_matches, Agg, Assertion, CmpOp, Field, Pred,
    Property, Query, SpanSpec, Spec, Trace,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Result of pairing a [`SpanSpec`] over a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SpanScan {
    /// Longest closed open→close duration in ticks.
    max_duration: u64,
    /// Closes with no matching open, plus opens never closed.
    unpaired: u64,
}

/// Pairs open/close endpoints per key (LIFO when one key nests) over
/// `events`, which must be in canonical order: the reference pairing.
fn scan_spans(events: &[RawEvent], s: &SpanSpec) -> SpanScan {
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

/// The reference semantics `Fold` must reproduce: collect every matching
/// event of a full scan, then aggregate. Shares nothing with the engine but
/// `pred_matches` and `field_value`.
fn eval_naive(query: &Query, agg: &Agg) -> u64 {
    let trace = query.trace();
    let matching = |pred: &Pred| -> Vec<&RawEvent> {
        let events = trace.events.iter();
        events.filter(|e| pred_matches(pred, e)).collect()
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
            let span = trace.span().max(1) as u128;
            let per_sec = n * trace.ticks_per_sec as u128 / span;
            u64::try_from(per_sec).unwrap_or(u64::MAX)
        }
        Agg::MaxGap(p) => matching(p)
            .windows(2)
            .map(|w| w[1].time.saturating_sub(w[0].time))
            .max()
            .unwrap_or(0),
        Agg::MaxDuration(s) => scan_spans(&trace.events, s).max_duration,
        Agg::Unpaired(s) => scan_spans(&trace.events, s).unpaired,
    }
}

/// The engine and the reference on one small hand-written trace, shape by
/// shape, before the random ones.
#[test]
fn count_indexed_agrees_with_naive() {
    let ev = |cpu, time: u64, major, minor, payload: &[u64]| RawEvent {
        cpu,
        seq: 0,
        offset: 0,
        time,
        ts32: time as u32,
        major,
        minor,
        payload: payload.into(),
    };
    let events = vec![
        ev(0, 100, MajorId::LOCK, 2, &[0xA, 1]), // acquire A
        ev(0, 150, MajorId::LOCK, 2, &[0xB, 1]), // acquire B
        ev(1, 180, MajorId::SCHED, 1, &[1, 2, 9]),
        ev(0, 200, MajorId::LOCK, 3, &[0xB, 1]), // release B (held 50)
        ev(0, 400, MajorId::LOCK, 3, &[0xA, 1]), // release A (held 300)
        ev(1, 500, MajorId::LOCK, 3, &[0xC, 2]), // release never opened
    ];
    let q = Query::new(Trace::new(events, EventRegistry::with_builtin(), 1_000));
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
        "max_duration(span(LOCK, 2 -> 3, key = payload[0]))",
        "unpaired(span(LOCK, 2 -> 3, key = payload[0]))",
    ] {
        let agg = parse_agg(text).unwrap();
        assert_eq!(q.eval(&agg), eval_naive(&q, &agg), "{text}");
    }
}

/// Deterministic word stream (splitmix64) so a single `u64` seed expands
/// into an arbitrarily deep expression tree.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn gen_op(g: &mut Gen) -> CmpOp {
    match g.below(6) {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

fn gen_field(g: &mut Gen) -> Field {
    match g.below(5) {
        0 => Field::Major,
        1 => Field::Minor,
        2 => Field::Cpu,
        3 => Field::Time,
        _ => Field::Payload(g.below(8) as usize),
    }
}

/// Mixes tiny values (likely to collide with event fields), boundary
/// values, and the full domain.
fn gen_value(g: &mut Gen) -> u64 {
    match g.below(4) {
        0 => g.below(16),
        1 => g.below(2_000),
        2 => u64::MAX - g.below(3),
        _ => g.next(),
    }
}

fn gen_leaf(g: &mut Gen) -> Pred {
    if g.below(5) == 0 {
        Pred::True
    } else {
        Pred::Cmp(gen_field(g), gen_op(g), gen_value(g))
    }
}

fn gen_pred(g: &mut Gen, depth: u32) -> Pred {
    if depth == 0 {
        return gen_leaf(g);
    }
    match g.below(6) {
        0 => Pred::Not(Box::new(gen_pred(g, depth - 1))),
        1 => Pred::And(
            Box::new(gen_pred(g, depth - 1)),
            Box::new(gen_pred(g, depth - 1)),
        ),
        2 => Pred::Or(
            Box::new(gen_pred(g, depth - 1)),
            Box::new(gen_pred(g, depth - 1)),
        ),
        _ => gen_leaf(g),
    }
}

fn gen_span(g: &mut Gen) -> SpanSpec {
    SpanSpec {
        major: MajorId::new_unchecked(g.below(64) as u8),
        open: g.below(8) as u16,
        close: g.below(8) as u16,
        key: g.below(4) as usize,
    }
}

fn gen_agg(g: &mut Gen) -> Agg {
    let depth = g.below(4) as u32;
    match g.below(7) {
        0 => Agg::Count(gen_pred(g, depth)),
        1 => Agg::Sum(gen_pred(g, depth), gen_field(g)),
        2 => Agg::Max(gen_pred(g, depth), gen_field(g)),
        3 => Agg::Rate(gen_pred(g, depth)),
        4 => Agg::MaxGap(gen_pred(g, depth)),
        5 => Agg::MaxDuration(gen_span(g)),
        _ => Agg::Unpaired(gen_span(g)),
    }
}

fn gen_event(g: &mut Gen) -> RawEvent {
    // A handful of majors (some well-known, one not), small minors, short
    // payloads of small words: dense enough that predicates and spans
    // actually match.
    let majors = [
        MajorId::CONTROL,
        MajorId::SCHED,
        MajorId::LOCK,
        MajorId::TEST,
        MajorId::new_unchecked(23),
    ];
    let time = g.below(1_000);
    RawEvent {
        cpu: g.below(4) as usize,
        seq: g.below(3),
        offset: g.below(64) as usize,
        time,
        ts32: time as u32,
        major: majors[g.below(majors.len() as u64) as usize],
        minor: g.below(6) as u16,
        payload: (0..g.below(4)).map(|_| g.below(16)).collect(),
    }
}

fn gen_set(g: &mut Gen, n: usize) -> Trace {
    Trace::new(
        (0..n).map(|_| gen_event(g)).collect(),
        EventRegistry::with_builtin(),
        1_000,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pred_print_parse_round_trip(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let pred = gen_pred(&mut g, 4);
        let text = pred.to_string();
        let reparsed = parse_pred(&text);
        prop_assert_eq!(reparsed.as_ref(), Ok(&pred), "text was {:?}", text);
        // The canonical form is a fixed point of print∘parse.
        prop_assert_eq!(reparsed.unwrap().to_string(), text);
    }

    #[test]
    fn assertion_print_parse_round_trip(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let assertion = Assertion {
            agg: gen_agg(&mut g),
            op: gen_op(&mut g),
            bound: gen_value(&mut g),
        };
        let text = assertion.to_string();
        prop_assert_eq!(parse_assertion(&text).as_ref(), Ok(&assertion), "text was {:?}", text);
        let agg_text = assertion.agg.to_string();
        prop_assert_eq!(parse_agg(&agg_text).as_ref(), Ok(&assertion.agg), "text was {:?}", agg_text);
    }

    #[test]
    fn indexed_evaluator_agrees_with_naive(seed in any::<u64>(), n in 0usize..120) {
        let mut g = Gen::new(seed);
        let set = gen_set(&mut g, n);
        let query = Query::new(set);
        for _ in 0..8 {
            let agg = gen_agg(&mut g);
            prop_assert_eq!(
                query.eval(&agg),
                eval_naive(&query, &agg),
                "diverged on {} over {} events (seed {})",
                agg,
                n,
                seed
            );
        }
    }

    #[test]
    fn window_predicates_agree_on_boundaries(seed in any::<u64>()) {
        // Time-window predicates are the ones the index actually narrows;
        // hammer exact boundary shapes (==, <=, off-by-one windows).
        let mut g = Gen::new(seed);
        let set = gen_set(&mut g, 80);
        let query = Query::new(set);
        let t = g.below(1_000);
        for text in [
            format!("count(time == {t})"),
            format!("count(time >= {t} & time < {})", t + 1),
            format!("count(time <= {t})"),
            format!("count(time > {t})"),
            format!("count(time >= {t} & time <= {t})"),
            format!("count(cpu == {} & time >= {t})", g.below(5)),
        ] {
            let agg = parse_agg(&text).unwrap();
            prop_assert_eq!(query.eval(&agg), eval_naive(&query, &agg), "{}", text);
        }
    }

    #[test]
    fn spec_check_agrees_with_naive_on_every_property(seed in any::<u64>(), n in 0usize..120) {
        let mut g = Gen::new(seed);
        let query = Query::new(gen_set(&mut g, n));
        // Shapes the major pin must narrow on, and shapes it must not: a pin
        // may come only from `major == X` in the top-level `&` chain.
        // X and Y are majors the generated events carry.
        let majors = [0u64, 4, 5, 63, 23];
        let x = majors[g.below(5) as usize];
        let y = majors[g.below(5) as usize];
        let pin_shapes = [
            format!("count(major == {x})"),
            format!("count(major == {x} & minor == {})", g.below(6)),
            format!("count(major != {x})"),
            format!("count(!(major == {x}))"),
            format!("count(major == {x} | cpu == 1)"),
            format!("count(major == {x} & major == {y})"),
            format!("sum(major == {x} & (major == {y} | time >= {}), time)", g.below(1_000)),
            format!("max_gap(payload[0] == {} & major == {x})", g.below(16)),
        ];
        let aggs: Vec<Agg> = (0..1 + g.below(6))
            .map(|_| {
                if g.below(2) == 0 {
                    parse_agg(&pin_shapes[g.below(pin_shapes.len() as u64) as usize]).unwrap()
                } else {
                    gen_agg(&mut g)
                }
            })
            .collect();
        // `agg != naive` holds exactly when the fold disagrees with the
        // reference, so an agreeing engine violates every property and each
        // violation reports the fold's actual.
        let naive: Vec<u64> = aggs.iter().map(|agg| eval_naive(&query, agg)).collect();
        let spec = Spec {
            properties: aggs
                .iter()
                .zip(&naive)
                .enumerate()
                .map(|(i, (agg, &bound))| Property {
                    name: format!("p{i}"),
                    assertion: Assertion { agg: agg.clone(), op: CmpOp::Ne, bound },
                })
                .collect(),
        };
        let report = spec.check(&query);
        let details: Vec<&str> = report.violations.iter().map(|v| v.detail.as_str()).collect();
        let expected: Vec<String> = spec
            .properties
            .iter()
            .zip(&naive)
            .map(|(p, actual)| format!("property '{}': {} (actual {actual})", p.name, p.assertion))
            .collect();
        prop_assert_eq!(details, expected, "seed {} over {} events", seed, n);
        prop_assert_eq!(
            report.data_events_checked,
            query.trace().events.iter().filter(|e| !e.is_control()).count()
        );
        prop_assert_eq!(report.events_checked, n);
    }
}
