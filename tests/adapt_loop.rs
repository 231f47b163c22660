//! The adaptive control plane's closed loop, end to end and deterministic:
//! overload → detect → shed → recover → restore, then the whole episode
//! reconstructed post-hoc from the trace's CONTROL audit events alone.
//!
//! No wall clock, no threads, no real sink. Each control interval is an
//! explicit observe → step call; "overload" is a burst larger than the
//! undrained ring, so the drop counter spikes exactly when the test says
//! so. The burst size tracks the sampling rate (`offered = admitted ×
//! rate`), which keeps the admitted load — and therefore the drop delta —
//! roughly constant while the controller walks the rate up: the departure
//! stays a departure until the mask closes at [`MAX_LEVEL`].

use ktrace::adapt::{direction, MAX_LEVEL};
use ktrace::format::ids::control;
use ktrace::prelude::*;
use std::sync::Arc;

const TICKS_PER_SEC: u64 = 1_000_000_000;

/// Offers `n` USER events on cpu 0; the logger admits, samples out, masks,
/// or drops each one according to its current control state.
fn burst(logger: &TraceLogger, seq: &mut u64, n: u64, phase: u64) {
    let h = logger.handle(0).expect("cpu 0 handle");
    for _ in 0..n {
        h.log_slice(
            MajorId::USER,
            ktrace::events::user::APP_TICK,
            &[*seq, phase],
        );
        *seq += 1;
    }
}

#[test]
fn closed_loop_sheds_recovers_and_leaves_a_queryable_audit_trail() {
    let logger = TraceLogger::builder()
        .geometry(TraceConfig {
            buffer_words: 256,
            buffers_per_cpu: 4,
            ..TraceConfig::small()
        })
        .clock(Arc::new(ManualClock::new(1_000, 1)))
        .ncpus(1)
        .build()
        .unwrap();
    ktrace::events::register_all(&logger);

    let mut detector = Detector::default();
    let mut controller = Controller::new(ControllerConfig {
        shed_majors: vec![MajorId::USER],
        recover_after: 2,
        audit_cpu: 0,
    });
    let mut buffers = Vec::new();
    let mut seq = 0u64;

    // -- Phase 1: quiet baseline -----------------------------------------
    // A modest paced load, drained every interval: the detector learns that
    // "healthy" means a near-zero drop delta.
    for interval in 0..12 {
        burst(&logger, &mut seq, 32, 1);
        buffers.extend(logger.drain_all().into_iter().flatten());
        let anomalies = detector.observe(&logger.telemetry().snapshot());
        let r = controller.step(&logger, &anomalies);
        assert!(anomalies.is_empty(), "baseline interval {interval} fired");
        assert_eq!(r.level, 0);
    }
    assert_eq!(
        logger.telemetry().snapshot().events_dropped(),
        0,
        "baseline is lossless"
    );

    // -- Phase 2: overload ------------------------------------------------
    // Each interval offers far more than the ring holds; the drop delta
    // departs its baseline, the detector fires, and the controller walks
    // the USER sampling rate up — then closes the mask at MAX_LEVEL.
    let mut escalations = 0;
    for _ in 0..12 {
        if controller.level() == MAX_LEVEL {
            break;
        }
        let rate = logger.sampling().rate(MajorId::USER);
        burst(&logger, &mut seq, 4096 * rate, 2);
        // Drain *before* stepping so the audit events always have room.
        buffers.extend(logger.drain_all().into_iter().flatten());
        let anomalies = detector.observe(&logger.telemetry().snapshot());
        let r = controller.step(&logger, &anomalies);
        if r.escalated {
            escalations += 1;
        }
    }
    assert!(
        controller.ever_fired(),
        "overload never tripped the detector"
    );
    assert_eq!(controller.level(), MAX_LEVEL, "overload reached max shed");
    assert_eq!(escalations, usize::from(MAX_LEVEL));
    assert_eq!(logger.sampling().rate(MajorId::USER), 16);
    assert!(
        !logger.mask().is_enabled(MajorId::USER),
        "mask closes at max level"
    );
    assert!(
        logger.mask().is_enabled(MajorId::CONTROL),
        "CONTROL never sheds"
    );
    assert!(
        logger.telemetry().snapshot().events_dropped() > 0,
        "overload really dropped"
    );

    // Shedding is real: while masked, offered USER load is absorbed as
    // masked events, not logged or dropped.
    let before = logger.telemetry().snapshot();
    burst(&logger, &mut seq, 100, 3);
    let after = logger.telemetry().snapshot();
    assert_eq!(after.events_logged(), before.events_logged());
    assert_eq!(after.events_dropped(), before.events_dropped());
    assert_eq!(after.events_masked(), before.events_masked() + 100);

    // -- Phase 3: recovery ------------------------------------------------
    // The overload stops; healthy intervals walk the level back to 0 and
    // restore full detail.
    for _ in 0..(u32::from(MAX_LEVEL) * 3 + 4) {
        if !controller.shedding() {
            break;
        }
        burst(&logger, &mut seq, 32, 4);
        buffers.extend(logger.drain_all().into_iter().flatten());
        let anomalies = detector.observe(&logger.telemetry().snapshot());
        assert!(anomalies.is_empty(), "recovery load re-fired the detector");
        controller.step(&logger, &anomalies);
    }
    assert!(!controller.shedding(), "loop never recovered");
    assert_eq!(logger.sampling().rate(MajorId::USER), 1, "rate restored");
    assert!(logger.mask().is_enabled(MajorId::USER), "mask reopened");

    // -- Post-hoc: the episode is reconstructible from the trace ----------
    logger.flush_all();
    buffers.extend(logger.drain_all().into_iter().flatten());
    let dir = std::env::temp_dir().join(format!("ktrace-adapt-loop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("adapt-loop.ktrace");
    let header = ktrace::io::FileHeader {
        ncpus: 1,
        buffer_words: logger.config().buffer_words as u32,
        ticks_per_sec: TICKS_PER_SEC,
        clock_synchronized: true,
        registry: logger.registry(),
    };
    let mut w = ktrace::io::TraceFileWriter::create(&path, &header).unwrap();
    for b in &buffers {
        w.write_buffer(b).unwrap();
    }
    w.finish().unwrap();

    let set = FileSource::new(&path).load().expect("file load");
    let query = Query::new(set);
    let count = |expr: &str| {
        let agg = ktrace::query::parse_agg(expr).unwrap_or_else(|e| panic!("{expr}: {e}"));
        query.eval(&agg)
    };

    // The detector's verdicts were audited, every one on a known track.
    let anomalies = count("count(major == CONTROL & minor == 4)");
    assert_eq!(anomalies, u64::from(MAX_LEVEL));
    // The shed/restore sequence is symmetric: every narrowing SAMPLE_ADJUST
    // and MASK_ADJUST has a widening partner.
    let narrow = |minor: u64| {
        count(&format!(
            "count(major == CONTROL & minor == {minor} & payload[0] == {})",
            direction::NARROW
        ))
    };
    let widen = |minor: u64| {
        count(&format!(
            "count(major == CONTROL & minor == {minor} & payload[0] == {})",
            direction::WIDEN
        ))
    };
    assert!(narrow(u64::from(control::SAMPLE_ADJUST)) >= 1);
    assert_eq!(
        narrow(u64::from(control::SAMPLE_ADJUST)),
        widen(u64::from(control::SAMPLE_ADJUST))
    );
    assert_eq!(narrow(u64::from(control::MASK_ADJUST)), 1);
    assert_eq!(widen(u64::from(control::MASK_ADJUST)), 1);
    // The loss the loop was reacting to is in the trace too.
    assert!(count("count(major == CONTROL & minor == 2)") >= 1);

    // The standing spec's adapt property holds on this (deliberately
    // lossy) trace: every audited anomaly names a schema-known track.
    let spec =
        Spec::from_file(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("props/ktrace.toml"))
            .expect("props spec parses");
    let prop = spec
        .properties
        .iter()
        .find(|p| p.name == "adapt-anomaly-tracks-known")
        .expect("standing adapt assertion exists");
    let actual = query.eval(&prop.assertion.agg);
    assert!(
        prop.assertion.holds(actual),
        "'{}' violated (actual {actual})",
        prop.name
    );

    std::fs::remove_dir_all(&dir).ok();
}
