//! The feedback controller: detector verdicts in, logger actions out.
//!
//! The controller holds a **shed level** (0 = full detail). Every interval
//! it is stepped with that interval's anomalies: any anomaly escalates one
//! level (and resets the recovery streak); `recover_after` consecutive
//! healthy intervals de-escalate one level. Levels map onto the logger:
//!
//! | level | sampling rate on shed majors | mask |
//! |-------|------------------------------|------|
//! | 0     | 1 (keep all)                 | shed majors enabled |
//! | 1–4   | 2, 4, 8, 16 (1-in-rate)      | shed majors enabled |
//! | 5     | 16                           | shed majors disabled |
//!
//! Every decision is logged as a `CONTROL` audit event through
//! [`TraceLogger::log_control_event`] — one `ANOMALY` per fired track, one
//! `SAMPLE_ADJUST` per changed rate, one `MASK_ADJUST` per mask change —
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

/// Controller policy.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Majors the controller may decimate and, at [`MAX_LEVEL`], disable.
    /// `CONTROL` in this list is ignored (it can be neither sampled nor
    /// masked off).
    pub shed_majors: Vec<MajorId>,
    /// Consecutive healthy intervals before de-escalating one level.
    pub recover_after: u32,
    /// CPU whose region carries the audit events.
    pub audit_cpu: usize,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            shed_majors: MajorId::all().filter(|m| *m != MajorId::CONTROL).collect(),
            recover_after: 3,
            audit_cpu: 0,
        }
    }
}

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
#[derive(Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    level: u8,
    healthy_streak: u32,
    /// True once any interval ever escalated (for end-of-run policy).
    ever_fired: bool,
}

impl Controller {
    /// A controller at level 0 (full detail).
    pub fn new(cfg: ControllerConfig) -> Controller {
        Controller {
            cfg,
            level: 0,
            healthy_streak: 0,
            ever_fired: false,
        }
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

    /// The sampling rate a shed level imposes on shed majors.
    pub fn rate_for_level(level: u8) -> u64 {
        1u64 << level.min(4)
    }

    /// One control interval: audits `anomalies`, escalates or recovers, and
    /// applies the resulting level to `logger`'s sampling gate and mask.
    pub fn step(&mut self, logger: &TraceLogger, anomalies: &[Anomaly]) -> StepReport {
        let cpu = self.cfg.audit_cpu;
        for a in anomalies {
            logger.log_control_event(
                cpu,
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
            if self.level > 0 && self.healthy_streak >= self.cfg.recover_after {
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

    /// Applies the current level's rates/mask, auditing every change.
    fn apply(&self, logger: &TraceLogger, prev_level: u8) {
        let cpu = self.cfg.audit_cpu;
        let rate = Controller::rate_for_level(self.level);
        for &major in &self.cfg.shed_majors {
            if major == MajorId::CONTROL {
                continue;
            }
            let old = logger.sampling().set_rate(major, rate);
            if old != rate {
                let dir = if rate > old {
                    direction::NARROW
                } else {
                    direction::WIDEN
                };
                logger.log_control_event(
                    cpu,
                    control::SAMPLE_ADJUST,
                    &[dir, u64::from(major.raw()), old, rate],
                );
            }
        }

        let masked_now = self.level >= MAX_LEVEL;
        let masked_before = prev_level >= MAX_LEVEL;
        if masked_now != masked_before {
            let old_bits = logger.mask().get();
            for &major in &self.cfg.shed_majors {
                if masked_now {
                    logger.mask().disable(major);
                } else {
                    logger.mask().enable(major);
                }
            }
            let new_bits = logger.mask().get();
            if new_bits != old_bits {
                let dir = if masked_now {
                    direction::NARROW
                } else {
                    direction::WIDEN
                };
                logger.log_control_event(cpu, control::MASK_ADJUST, &[dir, old_bits, new_bits]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::track;
    use ktrace_clock::ManualClock;
    use ktrace_core::{TraceConfig, TraceLogger};
    use std::sync::Arc;

    fn logger() -> TraceLogger {
        TraceLogger::builder()
            .geometry(TraceConfig::small())
            .clock(Arc::new(ManualClock::new(1, 1)))
            .ncpus(1)
            .build()
            .unwrap()
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

    #[test]
    fn escalation_raises_rates_and_recovery_restores() {
        let l = logger();
        let cfg = ControllerConfig {
            shed_majors: vec![MajorId::MEM, MajorId::SCHED],
            recover_after: 2,
            audit_cpu: 0,
        };
        let mut c = Controller::new(cfg);
        let r = c.step(&l, &[anomaly()]);
        assert!(r.escalated);
        assert_eq!(c.level(), 1);
        assert_eq!(l.sampling().rate(MajorId::MEM), 2);
        assert_eq!(l.sampling().rate(MajorId::PROC), 1, "not a shed major");

        // Two healthy intervals recover one level.
        assert!(!c.step(&l, &[]).de_escalated);
        assert!(c.step(&l, &[]).de_escalated);
        assert_eq!(c.level(), 0);
        assert_eq!(l.sampling().rate(MajorId::MEM), 1);
        assert!(c.ever_fired());

        let audits = audit_events(&l);
        // 1 ANOMALY + 2 narrowing SAMPLE_ADJUST + 2 widening SAMPLE_ADJUST.
        assert_eq!(
            audits
                .iter()
                .filter(|(m, _)| *m == control::ANOMALY)
                .count(),
            1
        );
        let sample_adjusts: Vec<&Vec<u64>> = audits
            .iter()
            .filter(|(m, _)| *m == control::SAMPLE_ADJUST)
            .map(|(_, p)| p)
            .collect();
        assert_eq!(sample_adjusts.len(), 4);
        assert!(sample_adjusts
            .iter()
            .any(|p| p[0] == direction::NARROW && p[2] == 1 && p[3] == 2));
        assert!(sample_adjusts
            .iter()
            .any(|p| p[0] == direction::WIDEN && p[2] == 2 && p[3] == 1));
    }

    #[test]
    fn max_level_narrows_the_mask_and_recovery_reopens_it() {
        let l = logger();
        let cfg = ControllerConfig {
            shed_majors: vec![MajorId::MEM],
            recover_after: 1,
            audit_cpu: 0,
        };
        let mut c = Controller::new(cfg);
        for _ in 0..MAX_LEVEL {
            c.step(&l, &[anomaly()]);
        }
        assert_eq!(c.level(), MAX_LEVEL);
        assert!(!l.mask().is_enabled(MajorId::MEM), "masked at max level");
        assert!(l.mask().is_enabled(MajorId::SCHED), "others untouched");
        // Saturates at MAX_LEVEL.
        c.step(&l, &[anomaly()]);
        assert_eq!(c.level(), MAX_LEVEL);

        c.step(&l, &[]);
        assert_eq!(c.level(), MAX_LEVEL - 1);
        assert!(l.mask().is_enabled(MajorId::MEM), "mask reopens below max");

        let audits = audit_events(&l);
        let masks: Vec<&Vec<u64>> = audits
            .iter()
            .filter(|(m, _)| *m == control::MASK_ADJUST)
            .map(|(_, p)| p)
            .collect();
        assert_eq!(masks.len(), 2, "{masks:?}");
        assert_eq!(masks[0][0], direction::NARROW);
        assert_eq!(masks[1][0], direction::WIDEN);
        // The narrow's new bits equal the widen's old bits.
        assert_eq!(masks[0][2], masks[1][1]);
    }

    #[test]
    fn control_major_is_never_shed() {
        let l = logger();
        let cfg = ControllerConfig {
            shed_majors: vec![MajorId::CONTROL, MajorId::MEM],
            recover_after: 1,
            audit_cpu: 0,
        };
        let mut c = Controller::new(cfg);
        for _ in 0..MAX_LEVEL {
            c.step(&l, &[anomaly()]);
        }
        assert_eq!(l.sampling().rate(MajorId::CONTROL), 1);
        assert!(
            l.mask().is_enabled(MajorId::CONTROL),
            "CONTROL undisablable"
        );
    }

    #[test]
    fn healthy_controller_does_nothing() {
        let l = logger();
        let mut c = Controller::new(ControllerConfig::default());
        for _ in 0..10 {
            let r = c.step(&l, &[]);
            assert_eq!(r.level, 0);
        }
        assert!(!c.ever_fired());
        assert!(audit_events(&l).is_empty());
    }
}
