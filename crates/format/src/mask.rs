//! The 64-bit trace mask.
//!
//! The paper's goal 4–6 hinge on this word: "a single comparison of a major
//! class bit against a trace mask variable can determine whether an event
//! should be logged. The major ID is a constant value, and because the trace
//! mask variable is frequently referenced it remains hot and no cache misses
//! are incurred."
//!
//! [`TraceMask`] is a single [`MaskWord`] read with `Relaxed` ordering on every
//! log attempt; mask updates take effect on other CPUs "eventually", which
//! matches the dynamic-enablement semantics of the paper (there is no
//! synchronization point when tracing is toggled).

use crate::ids::MajorId;
use crate::protocol::MaskWord;

/// One hot word deciding, per major ID, whether events are logged.
///
/// `CONTROL` (bit 0) is forced on by every constructor and setter: filler and
/// time-anchor events are part of the stream encoding, not optional data.
#[derive(Debug)]
pub struct TraceMask {
    bits: MaskWord,
}

impl TraceMask {
    /// A mask with every major ID enabled.
    pub fn all_enabled() -> TraceMask {
        TraceMask {
            bits: MaskWord::new(u64::MAX),
        }
    }

    /// A mask with only the mandatory `CONTROL` class enabled — i.e. tracing
    /// effectively off, at the cost of one relaxed load per log attempt.
    pub fn all_disabled() -> TraceMask {
        TraceMask {
            bits: MaskWord::new(MajorId::CONTROL.bit()),
        }
    }

    /// A mask with exactly the given majors (plus `CONTROL`) enabled.
    pub fn with_majors(majors: &[MajorId]) -> TraceMask {
        let mut bits = MajorId::CONTROL.bit();
        for m in majors {
            bits |= m.bit();
        }
        TraceMask {
            bits: MaskWord::new(bits),
        }
    }

    /// The fast-path test: is logging enabled for `major`?
    ///
    /// This compiles to a relaxed load, an AND with a constant, and a branch —
    /// the Rust analogue of the paper's "4 machine instructions".
    #[inline(always)]
    pub fn is_enabled(&self, major: MajorId) -> bool {
        self.bits.load() & major.bit() != 0
    }

    /// Enables one major ID.
    pub fn enable(&self, major: MajorId) {
        self.bits.or(major.bit());
    }

    /// Disables one major ID. Disabling `CONTROL` is ignored.
    pub fn disable(&self, major: MajorId) {
        if major != MajorId::CONTROL {
            self.bits.and(!major.bit());
        }
    }

    /// Replaces the whole mask (forcing `CONTROL` on).
    pub fn set(&self, bits: u64) {
        self.bits.store(bits | MajorId::CONTROL.bit());
    }

    /// Reads the whole mask word.
    pub fn get(&self) -> u64 {
        self.bits.load()
    }
}

impl Default for TraceMask {
    fn default() -> TraceMask {
        TraceMask::all_enabled()
    }
}

impl Clone for TraceMask {
    fn clone(&self) -> TraceMask {
        TraceMask {
            bits: MaskWord::new(self.get()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_disable_roundtrip() {
        let m = TraceMask::all_disabled();
        assert!(!m.is_enabled(MajorId::LOCK));
        m.enable(MajorId::LOCK);
        assert!(m.is_enabled(MajorId::LOCK));
        m.disable(MajorId::LOCK);
        assert!(!m.is_enabled(MajorId::LOCK));
    }

    #[test]
    fn control_cannot_be_disabled() {
        let m = TraceMask::all_disabled();
        assert!(m.is_enabled(MajorId::CONTROL));
        m.disable(MajorId::CONTROL);
        assert!(m.is_enabled(MajorId::CONTROL));
        m.set(0);
        assert!(m.is_enabled(MajorId::CONTROL));
    }

    #[test]
    fn with_majors_enables_exactly_those() {
        let m = TraceMask::with_majors(&[MajorId::MEM, MajorId::SCHED]);
        assert!(m.is_enabled(MajorId::MEM));
        assert!(m.is_enabled(MajorId::SCHED));
        assert!(m.is_enabled(MajorId::CONTROL));
        assert!(!m.is_enabled(MajorId::LOCK));
        assert!(!m.is_enabled(MajorId::TEST));
    }

    #[test]
    fn all_enabled_covers_every_major() {
        let m = TraceMask::all_enabled();
        for id in MajorId::all() {
            assert!(m.is_enabled(id));
        }
    }

    #[test]
    fn mask_updates_are_visible_across_threads() {
        let m = std::sync::Arc::new(TraceMask::all_disabled());
        let m2 = m.clone();
        let h = std::thread::spawn(move || {
            m2.enable(MajorId::TEST);
        });
        h.join().unwrap();
        assert!(m.is_enabled(MajorId::TEST));
    }
}
