//! Property: the logger never emits an event for a masked-off major — the
//! fast-path mask check in `TraceLogger::log` really gates, for every major
//! and any payload — and re-enabling restores logging.

use ktrace_clock::ManualClock;
use ktrace_core::{TraceConfig, TraceLogger};
use ktrace_format::MajorId;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn masked_off_majors_are_never_logged(
        raws in prop::collection::vec(1u8..64, 1..8),
        payload in prop::collection::vec(any::<u64>(), 0..4),
    ) {
        let logger =
            TraceLogger::builder().geometry(TraceConfig::small()).clock(Arc::new(ManualClock::new(1, 1))).ncpus(1).build().unwrap();
        let h = logger.handle(0).unwrap();

        for &raw in &raws {
            let id = MajorId::new(raw).unwrap();
            logger.mask().disable(id);
            prop_assert!(!h.log_slice(id, 1, &payload), "major {raw} logged while disabled");
        }
        prop_assert_eq!(logger.telemetry().snapshot().events_logged(), 0);

        // Dynamic re-enablement (paper goal 4): the same call logs again.
        let id = MajorId::new(raws[0]).unwrap();
        logger.mask().enable(id);
        prop_assert!(h.log_slice(id, 1, &payload));
        prop_assert_eq!(logger.telemetry().snapshot().events_logged(), 1);
    }
}
