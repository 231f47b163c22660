//! The feedback controller: detector verdicts in, logger actions out.
//!
//! The controller holds a **shed level** (0 = full detail). Every interval
//! it is stepped with that interval's anomalies: any anomaly escalates one
//! level (and resets the recovery streak); [`RECOVER_AFTER`] consecutive
//! healthy intervals de-escalate one level. Levels map onto the logger's
//! one sampling rate and its mask:
//!
//! | level | sampling rate             | mask                        |
//! |-------|---------------------------|-----------------------------|
//! | 0     | 1 (keep all)              | as built                    |
//! | 1–4   | 2, 4, 8, 16 (1-in-rate)   | as built                    |
//! | 5     | 16                        | `CONTROL` only              |
//!
//! `CONTROL` is never shed: the sampling gate admits it at any rate and the
//! mask keeps its bit, so the stream stays decodable and carries the audit
//! trail. Leaving level 5 sets back exactly the bits entering it cleared.
//!
//! Every decision is logged as a `CONTROL` audit event through
//! [`TraceLogger::log_control_event`] — one `ANOMALY` per fired track, one
//! `SAMPLE_ADJUST` per rate change, one `MASK_ADJUST` per mask change —
//! so the closed loop is reconstructible post-hoc from the trace alone
//! (see the `adapt-*` assertions in `props/ktrace.toml`).

use crate::detector::Anomaly;
use ktrace_core::TraceLogger;
use ktrace_format::ids::control;
use ktrace_format::MajorId;

/// Direction word used in `MASK_ADJUST` / `SAMPLE_ADJUST` payloads.
pub mod direction {
    /// Detail was shed (rate raised / majors disabled).
    pub const NARROW: u64 = 0;
    /// Detail was restored (rate lowered / majors re-enabled).
    pub const WIDEN: u64 = 1;
}

/// The highest shed level (mask narrowing engages at this level).
pub const MAX_LEVEL: u8 = 5;

/// Consecutive healthy intervals before de-escalating one level.
pub const RECOVER_AFTER: u32 = 3;

/// CPU whose region carries the audit events.
const AUDIT_CPU: usize = 0;

/// What one [`Controller::step`] did, for logs and exit-code policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepReport {
    /// Shed level after the step.
    pub level: u8,
    /// Anomalies observed this step.
    pub anomalies: usize,
    /// The step raised the shed level.
    pub escalated: bool,
    /// The step lowered the shed level.
    pub de_escalated: bool,
}

/// Converts anomaly verdicts into mask/sampling actions on a live logger,
/// with a full audit trail in the trace.
#[derive(Debug, Default)]
pub struct Controller {
    level: u8,
    healthy_streak: u32,
    /// True once any interval ever escalated (for end-of-run policy).
    ever_fired: bool,
    /// The mask bits the move to [`MAX_LEVEL`] cleared, set back on leaving
    /// it.
    narrowed: u64,
}

impl Controller {
    /// A controller at level 0 (full detail).
    pub fn new() -> Controller {
        Controller::default()
    }

    /// Current shed level (0 = full detail).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// True while any detail is shed.
    pub fn shedding(&self) -> bool {
        self.level > 0
    }

    /// True if any interval ever fired an anomaly.
    pub fn ever_fired(&self) -> bool {
        self.ever_fired
    }

    /// The sampling rate a shed level imposes.
    pub fn rate_for_level(level: u8) -> u64 {
        1u64 << level.min(4)
    }

    /// One control interval: audits `anomalies`, escalates or recovers, and
    /// applies the resulting level to `logger`'s sampling gate and mask.
    pub fn step(&mut self, logger: &TraceLogger, anomalies: &[Anomaly]) -> StepReport {
        for a in anomalies {
            logger.log_control_event(
                AUDIT_CPU,
                control::ANOMALY,
                &[
                    a.track as u64,
                    u64::MAX, // whole-logger verdict, no single CPU
                    a.z_milli.max(0) as u64,
                    a.value,
                ],
            );
        }

        let before = self.level;
        if anomalies.is_empty() {
            self.healthy_streak += 1;
            if self.level > 0 && self.healthy_streak >= RECOVER_AFTER {
                self.level -= 1;
                self.healthy_streak = 0;
            }
        } else {
            self.ever_fired = true;
            self.healthy_streak = 0;
            if self.level < MAX_LEVEL {
                self.level += 1;
            }
        }
        if self.level != before {
            self.apply(logger, before);
        }
        StepReport {
            level: self.level,
            anomalies: anomalies.len(),
            escalated: self.level > before,
            de_escalated: self.level < before,
        }
    }

    /// Applies the current level's rate and mask, auditing every change.
    fn apply(&mut self, logger: &TraceLogger, prev_level: u8) {
        let rate = Controller::rate_for_level(self.level);
        let old = logger.sampling().set_rate(rate);
        if old != rate {
            let dir = if rate > old {
                direction::NARROW
            } else {
                direction::WIDEN
            };
            logger.log_control_event(AUDIT_CPU, control::SAMPLE_ADJUST, &[dir, old, rate]);
        }

        let masked_now = self.level >= MAX_LEVEL;
        let masked_before = prev_level >= MAX_LEVEL;
        if masked_now != masked_before {
            let mask = logger.mask();
            let old_bits = mask.get();
            let dir = if masked_now {
                mask.set(MajorId::CONTROL.bit());
                self.narrowed = old_bits & !mask.get();
                direction::NARROW
            } else {
                mask.set(old_bits | self.narrowed);
                direction::WIDEN
            };
            let new_bits = mask.get();
            if new_bits != old_bits {
                logger.log_control_event(
                    AUDIT_CPU,
                    control::MASK_ADJUST,
                    &[dir, old_bits, new_bits],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::track;
    use ktrace_clock::ManualClock;
    use ktrace_core::{LoggerBuilder, TraceConfig, TraceLogger};
    use std::sync::Arc;

    fn builder() -> LoggerBuilder {
        TraceLogger::builder()
            .geometry(TraceConfig::small())
            .clock(Arc::new(ManualClock::new(1, 1)))
            .ncpus(1)
    }

    fn logger() -> TraceLogger {
        builder().build().unwrap()
    }

    fn anomaly() -> Anomaly {
        Anomaly {
            track: track::DROP_RATE,
            value: 1000,
            z_milli: 9000,
        }
    }

    fn audit_events(l: &TraceLogger) -> Vec<(u16, Vec<u64>)> {
        l.flush_all();
        l.drain_all()
            .iter()
            .flatten()
            .flat_map(|b| ktrace_core::parse_buffer(0, b.seq, &b.words, None).events)
            .filter(|e| e.major == MajorId::CONTROL && e.minor >= control::ANOMALY)
            .map(|e| (e.minor, e.payload.to_vec()))
            .collect()
    }

    fn payloads(audits: &[(u16, Vec<u64>)], minor: u16) -> Vec<Vec<u64>> {
        audits
            .iter()
            .filter(|(m, _)| *m == minor)
            .map(|(_, p)| p.clone())
            .collect()
    }

    #[test]
    fn escalation_raises_rates_and_recovery_restores() {
        let l = logger();
        let mut c = Controller::new();
        let r = c.step(&l, &[anomaly()]);
        assert!(r.escalated);
        assert_eq!(c.level(), 1);
        assert_eq!(l.sampling().rate(), 2);
        assert!(
            (0..4).all(|_| l.sampling().admit(MajorId::CONTROL)),
            "CONTROL is never sampled"
        );

        // RECOVER_AFTER healthy intervals recover one level.
        for _ in 1..RECOVER_AFTER {
            assert!(!c.step(&l, &[]).de_escalated);
        }
        assert!(c.step(&l, &[]).de_escalated);
        assert_eq!(c.level(), 0);
        assert_eq!(l.sampling().rate(), 1);
        assert!(c.ever_fired());

        // 1 ANOMALY, and one SAMPLE_ADJUST per rate change.
        let audits = audit_events(&l);
        assert_eq!(payloads(&audits, control::ANOMALY).len(), 1);
        assert_eq!(
            payloads(&audits, control::SAMPLE_ADJUST),
            [vec![direction::NARROW, 1, 2], vec![direction::WIDEN, 2, 1]]
        );
    }

    #[test]
    fn max_level_narrows_the_mask_and_recovery_reopens_it() {
        let l = logger();
        let mut c = Controller::new();
        for _ in 0..MAX_LEVEL {
            c.step(&l, &[anomaly()]);
        }
        assert_eq!(c.level(), MAX_LEVEL);
        assert!(!l.mask().is_enabled(MajorId::MEM), "masked at max level");
        assert!(
            l.mask().is_enabled(MajorId::CONTROL),
            "the unshed major untouched"
        );
        // Saturates at MAX_LEVEL.
        c.step(&l, &[anomaly()]);
        assert_eq!(c.level(), MAX_LEVEL);

        for _ in 0..RECOVER_AFTER {
            c.step(&l, &[]);
        }
        assert_eq!(c.level(), MAX_LEVEL - 1);
        assert!(l.mask().is_enabled(MajorId::MEM), "mask reopens below max");

        let masks = payloads(&audit_events(&l), control::MASK_ADJUST);
        assert_eq!(masks.len(), 2, "{masks:?}");
        assert_eq!(masks[0][0], direction::NARROW);
        assert_eq!(masks[1][0], direction::WIDEN);
        assert_eq!(
            masks[0][2],
            MajorId::CONTROL.bit(),
            "narrowed to the unshed major"
        );
        // The narrow's new bits equal the widen's old bits.
        assert_eq!(masks[0][2], masks[1][1]);
    }

    #[test]
    fn recovery_restores_the_mask_it_narrowed() {
        let fs_only = MajorId::CONTROL.bit() | MajorId::FS.bit();
        let l = builder().enable_only(&[MajorId::FS]).build().unwrap();
        let mut c = Controller::new();
        for _ in 0..MAX_LEVEL {
            c.step(&l, &[anomaly()]);
        }
        while c.shedding() {
            c.step(&l, &[]);
        }
        assert_eq!(l.mask().get(), fs_only, "no major the logger never had");
        assert_eq!(
            payloads(&audit_events(&l), control::MASK_ADJUST),
            [
                vec![direction::NARROW, fs_only, MajorId::CONTROL.bit()],
                vec![direction::WIDEN, MajorId::CONTROL.bit(), fs_only]
            ]
        );

        // A major enabled while the mask is narrowed stays enabled.
        for _ in 0..MAX_LEVEL {
            c.step(&l, &[anomaly()]);
        }
        l.mask().enable(MajorId::MEM);
        while c.shedding() {
            c.step(&l, &[]);
        }
        assert_eq!(l.mask().get(), fs_only | MajorId::MEM.bit());
    }

    #[test]
    fn control_major_is_never_shed() {
        let l = logger();
        let mut c = Controller::new();
        for _ in 0..MAX_LEVEL {
            c.step(&l, &[anomaly()]);
        }
        assert!(
            (0..32).all(|_| l.sampling().admit(MajorId::CONTROL)),
            "CONTROL is never sampled"
        );
        assert!(
            l.mask().is_enabled(MajorId::CONTROL),
            "CONTROL undisablable"
        );
    }

    #[test]
    fn healthy_controller_does_nothing() {
        let l = logger();
        let mut c = Controller::new();
        for _ in 0..10 {
            let r = c.step(&l, &[]);
            assert_eq!(r.level, 0);
        }
        assert!(!c.ever_fired());
        assert!(audit_events(&l).is_empty());
    }
}
