//! Named trace-property specs and the assertion engine.
//!
//! A spec is a small TOML file of named assertions:
//!
//! ```toml
//! [[assert]]
//! name = "no-drop-markers"
//! check = "count(major == CONTROL & minor == 2) == 0"
//! ```
//!
//! [`Spec::check`] evaluates every property in one walk of a [`Query`]'s
//! trace and returns a [`Report`] on the exit-code table `ktrace-tools
//! verify` also exits on: each violated property maps to the assertion
//! band (codes 36–39) by its aggregation class, so CI can tell *which kind*
//! of property broke from the exit code alone.

use crate::eval::{Fold, Query};
use crate::expr::{parse_assertion, Agg, Assertion};
use crate::index::Bounds;
use ktrace_format::NUM_MAJOR_IDS;
use ktrace_verify::{Report, ViolationKind};
use std::fmt;
use std::path::Path;

/// One named assertion from a spec file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Property {
    /// The spec-file name, e.g. `"heartbeat-cadence"`.
    pub name: String,
    /// The parsed check.
    pub assertion: Assertion,
}

/// A parsed spec: an ordered list of named properties.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Spec {
    /// Properties in file order.
    pub properties: Vec<Property>,
}

/// Why a spec file could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line in the spec file ( 0 for file-level problems).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for SpecError {}

/// The exit-code class a violated assertion reports as, by aggregation.
pub fn violation_kind(agg: &Agg) -> ViolationKind {
    match agg {
        Agg::Count(_) | Agg::Sum(..) | Agg::Max(..) | Agg::Rate(_) => ViolationKind::AssertCount,
        Agg::Unpaired(_) => ViolationKind::AssertPairing,
        Agg::MaxDuration(_) => ViolationKind::AssertDuration,
        Agg::MaxGap(_) => ViolationKind::AssertCadence,
    }
}

impl Spec {
    /// Parses spec text. The accepted grammar is the TOML subset the
    /// examples use: `[[assert]]` tables with quoted-string `name` and
    /// `check` keys, `#` comments, and blank lines.
    pub fn parse(text: &str) -> Result<Spec, SpecError> {
        let mut properties = Vec::new();
        let mut current: Option<(usize, Option<String>, Option<String>)> = None;

        let finish = |current: &mut Option<(usize, Option<String>, Option<String>)>,
                      properties: &mut Vec<Property>|
         -> Result<(), SpecError> {
            if let Some((at, name, check)) = current.take() {
                let name = name.ok_or_else(|| SpecError {
                    line: at,
                    msg: "[[assert]] without a name".to_string(),
                })?;
                let check = check.ok_or_else(|| SpecError {
                    line: at,
                    msg: format!("assertion {name:?} has no check"),
                })?;
                let assertion = parse_assertion(&check).map_err(|e| SpecError {
                    line: at,
                    msg: format!("assertion {name:?}: {e}"),
                })?;
                properties.push(Property { name, assertion });
            }
            Ok(())
        };

        for (i, raw_line) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[assert]]" {
                finish(&mut current, &mut properties)?;
                current = Some((lineno, None, None));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(SpecError {
                    line: lineno,
                    msg: format!("expected key = \"value\", got {line:?}"),
                });
            };
            if current.is_none() {
                return Err(SpecError {
                    line: lineno,
                    msg: "key outside any [[assert]] table".to_string(),
                });
            }
            let value = unquote(value.trim()).ok_or_else(|| SpecError {
                line: lineno,
                msg: format!("value must be a double-quoted string: {line:?}"),
            })?;
            let slot = current.as_mut().expect("checked above");
            match key.trim() {
                "name" => slot.1 = Some(value),
                "check" => slot.2 = Some(value),
                other => {
                    return Err(SpecError {
                        line: lineno,
                        msg: format!("unknown key {other:?} (expected name or check)"),
                    })
                }
            }
        }
        finish(&mut current, &mut properties)?;
        if properties.is_empty() {
            return Err(SpecError {
                line: 0,
                msg: "spec declares no [[assert]] properties".to_string(),
            });
        }
        Ok(Spec { properties })
    }

    /// Reads and parses a spec file.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Spec, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| SpecError {
            line: 0,
            msg: format!("{}: {e}", path.display()),
        })?;
        Spec::parse(&text)
    }

    /// Evaluates every property against `query` in one walk of its trace,
    /// reporting each violated one on the shared exit-code table.
    pub fn check(&self, query: &Query) -> Report {
        self.measure(query).1
    }

    /// [`check`](Spec::check), also returning each property's actual value
    /// in spec order.
    pub fn measure(&self, query: &Query) -> (Vec<u64>, Report) {
        let trace = query.trace();
        let mut folds: Vec<Fold<'_>> = self
            .properties
            .iter()
            .map(|p| Fold::new(&p.assertion.agg))
            .collect();
        // An event is offered only to the folds it can move: those pinned to
        // its major, and those pinned to none. (The last slot takes whatever
        // is outside the ID space, so nothing can index out of range.)
        let slot =
            |major: u64| usize::try_from(major).map_or(NUM_MAJOR_IDS, |m| m.min(NUM_MAJOR_IDS));
        let mut by_major: Vec<Vec<usize>> = vec![Vec::new(); NUM_MAJOR_IDS + 1];
        for (i, fold) in folds.iter().enumerate() {
            match fold.bounds() {
                Bounds { empty: true, .. } => {}
                Bounds { major: Some(m), .. } => by_major[slot(*m)].push(i),
                _ => by_major.iter_mut().for_each(|list| list.push(i)),
            }
        }

        let mut report = Report::new();
        report.events_checked = trace.events.len();
        for e in &trace.events {
            if !e.is_control() {
                report.data_events_checked += 1;
            }
            for &i in &by_major[slot(u64::from(e.major.raw()))] {
                folds[i].offer(e);
            }
        }
        let mut actuals = Vec::with_capacity(folds.len());
        for (p, fold) in self.properties.iter().zip(folds) {
            let actual = fold.finish(trace);
            if !p.assertion.holds(actual) {
                report.push(
                    violation_kind(&p.assertion.agg),
                    None,
                    None,
                    None,
                    format!("property '{}': {} (actual {actual})", p.name, p.assertion),
                );
            }
            actuals.push(actual);
        }
        (actuals, report)
    }
}

fn unquote(s: &str) -> Option<String> {
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    // The expression grammar never needs escapes; reject them so a spec
    // that tries is an error rather than silently mangled.
    if inner.contains('\\') || inner.contains('"') {
        return None;
    }
    Some(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_core::reader::RawEvent;
    use ktrace_format::{EventRegistry, MajorId};
    use ktrace_io::Trace;

    const SPEC: &str = r#"
# trace properties
[[assert]]
name = "no-drop-markers"
check = "count(major == CONTROL & minor == 2) == 0"

[[assert]]
name = "lock-balance"
check = "unpaired(span(LOCK, 2 -> 3, key = payload[0])) == 0"
"#;

    fn ev(time: u64, major: MajorId, minor: u16, payload: &[u64]) -> RawEvent {
        RawEvent {
            cpu: 0,
            seq: 0,
            offset: 0,
            time,
            ts32: time as u32,
            major,
            minor,
            payload: payload.into(),
        }
    }

    #[test]
    fn parses_names_and_checks() {
        let spec = Spec::parse(SPEC).unwrap();
        assert_eq!(spec.properties.len(), 2);
        assert_eq!(spec.properties[0].name, "no-drop-markers");
        assert_eq!(
            spec.properties[1].assertion.to_string(),
            "unpaired(span(LOCK, 2 -> 3, key = payload[0])) == 0"
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for (text, needle) in [
            ("", "no [[assert]]"),
            ("[[assert]]\ncheck = \"count(true) == 0\"", "without a name"),
            ("[[assert]]\nname = \"x\"", "has no check"),
            (
                "[[assert]]\nname = \"x\"\ncheck = \"bogus\"",
                "assertion \"x\"",
            ),
            ("name = \"x\"", "outside any"),
            ("[[assert]]\nname = x", "double-quoted"),
            ("[[assert]]\nwhat = \"x\"", "unknown key"),
            ("[[assert]]\njunk line", "expected key"),
        ] {
            let err = Spec::parse(text).unwrap_err();
            assert!(err.msg.contains(needle), "{text:?} → {err}");
        }
    }

    #[test]
    fn check_reports_on_the_assertion_band() {
        let spec = Spec::parse(SPEC).unwrap();
        // Clean trace: one balanced lock pair, no drop markers.
        let clean = Query::new(Trace::new(
            vec![
                ev(10, MajorId::LOCK, 2, &[0xA, 1]),
                ev(20, MajorId::LOCK, 3, &[0xA, 1]),
            ],
            EventRegistry::with_builtin(),
            1_000,
        ));
        let report = spec.check(&clean);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.exit_code(), 0);

        // One drop marker and one unbalanced acquire: both properties fire,
        // and the exit code is the smallest violated code (36).
        let broken = Query::new(Trace::new(
            vec![
                ev(5, MajorId::CONTROL, 2, &[7]),
                ev(10, MajorId::LOCK, 2, &[0xA, 1]),
            ],
            EventRegistry::with_builtin(),
            1_000,
        ));
        let report = spec.check(&broken);
        assert_eq!(report.violations.len(), 2);
        assert_eq!(
            report.kinds(),
            vec![ViolationKind::AssertCount, ViolationKind::AssertPairing]
        );
        assert_eq!(report.exit_code(), 36);
        assert!(report.render().contains("property 'no-drop-markers'"));
    }

    #[test]
    fn violation_kinds_partition_the_band() {
        use crate::expr::parse_agg;
        for (text, kind, code) in [
            ("count(true)", ViolationKind::AssertCount, 36),
            ("sum(true, time)", ViolationKind::AssertCount, 36),
            ("rate(true)", ViolationKind::AssertCount, 36),
            ("max(true, time)", ViolationKind::AssertCount, 36),
            (
                "unpaired(span(LOCK, 2 -> 3, key = payload[0]))",
                ViolationKind::AssertPairing,
                37,
            ),
            (
                "max_duration(span(LOCK, 2 -> 3, key = payload[0]))",
                ViolationKind::AssertDuration,
                38,
            ),
            ("max_gap(true)", ViolationKind::AssertCadence, 39),
        ] {
            let kind_got = violation_kind(&parse_agg(text).unwrap());
            assert_eq!(kind_got, kind, "{text}");
            assert_eq!(kind_got.exit_code(), code, "{text}");
        }
    }
}
