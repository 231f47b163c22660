//! Buffer geometry and operating mode.

use crate::error::CoreError;
use ktrace_format::MAX_EVENT_WORDS;
pub use ktrace_lockless::{Mode, ANCHOR_WORDS, DROPPED_WORDS};

/// The largest `buffer_words` [`TraceConfig::validate`] accepts: half the
/// range of a commit word's word half, so one generation plus straggling
/// commits never carries into its event half.
pub const MAX_BUFFER_WORDS: u64 = 1 << 31;

/// Geometry and mode of a per-CPU trace region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Words per buffer — the medium-scale alignment boundary (§3.2; the
    /// paper's example is 128 KiB = 16384 words). Power of two.
    pub buffer_words: usize,
    /// Buffers per CPU region. Power of two, at least 2.
    pub buffers_per_cpu: usize,
    /// Stream or flight-recorder operation.
    pub mode: Mode,
}

impl TraceConfig {
    /// The paper's example geometry: 128 KiB buffers, 8 per CPU (1 MiB/CPU).
    pub fn paper() -> TraceConfig {
        TraceConfig {
            buffer_words: 16 * 1024,
            buffers_per_cpu: 8,
            mode: Mode::Stream,
        }
    }

    /// A small geometry convenient for tests: 1 KiB buffers, 4 per CPU.
    pub fn small() -> TraceConfig {
        TraceConfig {
            buffer_words: 128,
            buffers_per_cpu: 4,
            mode: Mode::Stream,
        }
    }

    /// Same geometry as `self` but in flight-recorder mode.
    pub fn flight_recorder(mut self) -> TraceConfig {
        self.mode = Mode::FlightRecorder;
        self
    }

    /// Total words in one CPU's region.
    pub fn region_words(&self) -> usize {
        self.buffer_words * self.buffers_per_cpu
    }

    /// Largest total event size (header + payload) this geometry accepts: it
    /// must fit in a fresh buffer behind the anchor and a possible dropped
    /// marker, and in the header's 10-bit length field.
    pub fn max_event_words(&self) -> usize {
        MAX_EVENT_WORDS.min(self.buffer_words - ANCHOR_WORDS - DROPPED_WORDS)
    }

    /// Largest payload (data words, excluding the header).
    pub fn max_payload_words(&self) -> usize {
        self.max_event_words() - 1
    }

    /// Validates the geometry.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !self.buffer_words.is_power_of_two() || self.buffer_words < 16 {
            return Err(CoreError::BadConfig(
                "buffer_words must be a power of two >= 16",
            ));
        }
        if self.buffer_words as u64 > MAX_BUFFER_WORDS {
            // A generation plus a straggler must fit a commit word's 32-bit
            // word half, or it carries into the event count above it.
            return Err(CoreError::BadConfig("buffer_words must be at most 2^31"));
        }
        if !self.buffers_per_cpu.is_power_of_two() || self.buffers_per_cpu < 2 {
            return Err(CoreError::BadConfig(
                "buffers_per_cpu must be a power of two >= 2",
            ));
        }
        Ok(())
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            buffer_words: 8 * 1024,
            buffers_per_cpu: 8,
            mode: Mode::Stream,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_is_valid() {
        TraceConfig::paper().validate().unwrap();
        assert_eq!(TraceConfig::paper().buffer_words * 8, 128 * 1024);
    }

    #[test]
    fn default_and_small_are_valid() {
        TraceConfig::default().validate().unwrap();
        TraceConfig::small().validate().unwrap();
    }

    #[test]
    fn bad_geometries_rejected() {
        let mut c = TraceConfig::small();
        c.buffer_words = 100; // not a power of two
        assert!(c.validate().is_err());
        c = TraceConfig::small();
        c.buffer_words = 8; // too small
        assert!(c.validate().is_err());
        c = TraceConfig::small();
        c.buffers_per_cpu = 1;
        assert!(c.validate().is_err());
        c.buffers_per_cpu = 3;
        assert!(c.validate().is_err());
        c = TraceConfig::small();
        c.buffer_words = 2 * MAX_BUFFER_WORDS as usize; // carries into the event half
        assert!(c.validate().is_err());
        c.buffer_words = MAX_BUFFER_WORDS as usize;
        c.validate().unwrap();
    }

    #[test]
    fn max_event_words_respects_both_limits() {
        // Small buffers: limited by buffer size.
        let c = TraceConfig {
            buffer_words: 128,
            buffers_per_cpu: 2,
            mode: Mode::Stream,
        };
        assert_eq!(c.max_event_words(), 128 - ANCHOR_WORDS - DROPPED_WORDS);
        // Large buffers: limited by the 10-bit length field.
        let c = TraceConfig::paper();
        assert_eq!(c.max_event_words(), MAX_EVENT_WORDS);
        assert_eq!(c.max_payload_words(), MAX_EVENT_WORDS - 1);
    }

    #[test]
    fn flight_recorder_builder_sets_mode() {
        assert_eq!(
            TraceConfig::small().flight_recorder().mode,
            Mode::FlightRecorder
        );
    }
}
