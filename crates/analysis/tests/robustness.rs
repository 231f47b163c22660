//! Robustness property: no analysis tool may panic on arbitrary event
//! streams. Post-processing tools must survive garbled, truncated, or
//! adversarial traces — the paper's §3.1 position is that tools *handle*
//! damage, so crashing on weird input is a bug.

use ktrace_analysis::{
    find_deadlock, render_listing, to_csv, Breakdown, CounterReport, EventStats, ListingOptions,
    LockStats, PcProfile, Timeline, TimelineOptions, Trace, Utilization,
};
use ktrace_core::reader::RawEvent;
use ktrace_format::{EventRegistry, MajorId};
use proptest::prelude::*;

fn arb_event() -> impl Strategy<Value = RawEvent> {
    (
        0usize..6,    // cpu
        any::<u64>(), // time
        0u8..64,      // major
        any::<u16>(), // minor
        prop::collection::vec(any::<u64>(), 0..6),
    )
        .prop_map(|(cpu, time, major, minor, payload)| RawEvent {
            cpu,
            seq: 0,
            offset: 0,
            time,
            ts32: time as u32,
            major: MajorId::new(major).expect("bounded"),
            minor,
            payload: payload.into(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_tool_panics_on_arbitrary_streams(
        events in prop::collection::vec(arb_event(), 0..250),
    ) {
        let trace = Trace::new(events, EventRegistry::with_builtin(), 1_000_000_000);

        let _ = render_listing(&trace, &ListingOptions::default());
        let _ = render_listing(&trace, &ListingOptions { hide_control: true, limit: 7, ..Default::default() });
        let stats = LockStats::compute(&trace);
        let _ = stats.render(5, "time");
        let prof = PcProfile::compute(&trace);
        let _ = prof.render_all();
        let breakdown = Breakdown::compute(&trace);
        for pid in breakdown.processes.keys().take(3) {
            let _ = breakdown.render_process(*pid);
        }
        let tl = Timeline::build(&trace, &TimelineOptions { width: 23, ..Default::default() });
        let _ = tl.render_ascii();
        let _ = tl.render_svg();
        let _ = EventStats::compute(&trace).render(&trace);
        let _ = find_deadlock(&trace);
        let _ = CounterReport::compute(&trace).render(17);
        let util = Utilization::compute(&trace);
        let _ = util.render(&trace, 1_000);
        let _ = to_csv(&trace, true);
    }

    #[test]
    fn window_and_seconds_never_panic(
        events in prop::collection::vec(arb_event(), 1..100),
        t0 in any::<u64>(),
        t1 in any::<u64>(),
        probe in any::<u64>(),
    ) {
        let trace = Trace::new(events, EventRegistry::with_builtin(), 1_000_000_000);
        let w = trace.clone().window(t0.min(t1), t0.max(t1));
        prop_assert!(w.events.len() <= trace.events.len());
        let _ = trace.seconds(probe);
        let _ = ktrace_analysis::model::tid_to_pid(&trace, |_| true);
        let _ = ktrace_analysis::model::pid_names(&trace);
    }
}
