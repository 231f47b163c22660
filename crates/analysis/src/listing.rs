//! The textual event listing (Fig. 5).
//!
//! "We have a tool that takes a binary trace file and produces the textual
//! output shown in Figure 5 (left column is time in seconds). The event
//! names in the second column and the event description in the third column
//! are generated from an eventParse structure" (§4.4). The descriptions come
//! entirely from the self-describing registry; unknown events are hex-dumped
//! rather than dropped.

use crate::model::Trace;
use ktrace_format::MajorId;
use std::fmt::Write as _;

/// Listing controls.
#[derive(Debug, Clone, Default)]
pub struct ListingOptions {
    /// Show only these majors (empty = all).
    pub majors: Vec<MajorId>,
    /// Skip tracing-infrastructure control events (fillers, anchors).
    pub hide_control: bool,
    /// Maximum lines (0 = unlimited).
    pub limit: usize,
}

impl ListingOptions {
    /// Default options but hiding control events.
    pub fn data_only() -> ListingOptions {
        ListingOptions {
            hide_control: true,
            ..Default::default()
        }
    }
}

/// Renders the Fig. 5 listing: `seconds  NAME  description` per event.
pub fn render_listing(trace: &Trace, opts: &ListingOptions) -> String {
    let mut out = String::new();
    let mut lines = 0usize;
    // Found once: `Trace::seconds` would search for the origin per line.
    let origin = trace.origin();
    for e in &trace.events {
        if opts.hide_control && e.is_control() {
            continue;
        }
        if !opts.majors.is_empty() && !opts.majors.contains(&e.major) {
            continue;
        }
        if opts.limit > 0 && lines >= opts.limit {
            break;
        }
        let secs = e.time.saturating_sub(origin) as f64 / trace.ticks_per_sec as f64;
        match trace.registry.lookup(e.major, e.minor) {
            Some(desc) => {
                let rendered = desc
                    .describe(&e.payload)
                    .unwrap_or_else(|err| format!("<undecodable: {err}>"));
                let _ = writeln!(out, "{secs:.7} {} {rendered}", desc.name);
            }
            None => {
                let words: Vec<String> = e.payload.iter().map(|w| format!("{w:x}")).collect();
                let _ = writeln!(
                    out,
                    "{secs:.7} UNKNOWN_{}_{} [{}]",
                    e.major,
                    e.minor,
                    words.join(" ")
                );
            }
        }
        lines += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::{ev, trace};
    use ktrace_events::{exception, user};
    use ktrace_format::pack::WordPacker;

    fn sample() -> Trace {
        let mut name = WordPacker::new();
        name.push(6, 64).push(7, 64).push_str("/shellServer");
        trace(vec![
            ev(0, 1_000, MajorId::USER, user::RUN_UL_LOADER, &name.finish()),
            ev(
                0,
                1_100,
                MajorId::EXCEPTION,
                exception::PGFLT,
                &[0x80000000c12b0f90, 0x405e628],
            ),
            ev(
                0,
                1_200,
                MajorId::EXCEPTION,
                exception::PGFLT_DONE,
                &[0x80000000c12b0f90, 0x405e628],
            ),
            ev(0, 1_300, MajorId::TEST, 42, &[0xabc, 0xdef]),
        ])
    }

    #[test]
    fn renders_known_events_via_registry() {
        let s = render_listing(&sample(), &ListingOptions::default());
        assert!(s.contains("TRACE_USER_RUN_UL_LOADER"), "{s}");
        assert!(s.contains("process 6 created new process with id 7 name /shellServer"));
        assert!(s.contains("TRC_EXCEPTION_PGFLT"));
        assert!(s.contains("faultAddr 405e628"));
    }

    #[test]
    fn unknown_events_hexdumped() {
        let s = render_listing(&sample(), &ListingOptions::default());
        assert!(s.contains("UNKNOWN_TEST_42 [abc def]"), "{s}");
    }

    #[test]
    fn time_column_is_relative_seconds() {
        let s = render_listing(&sample(), &ListingOptions::default());
        let first = s.lines().next().unwrap();
        assert!(first.starts_with("0.0000000 "), "{first}");
        let second = s.lines().nth(1).unwrap();
        assert!(second.starts_with("0.0000001 "), "{second}");
    }

    #[test]
    fn filters_and_limit() {
        let t = sample();
        let only_exc = render_listing(
            &t,
            &ListingOptions {
                majors: vec![MajorId::EXCEPTION],
                ..Default::default()
            },
        );
        assert_eq!(only_exc.lines().count(), 2);
        let limited = render_listing(
            &t,
            &ListingOptions {
                limit: 1,
                ..Default::default()
            },
        );
        assert_eq!(limited.lines().count(), 1);
    }
}
