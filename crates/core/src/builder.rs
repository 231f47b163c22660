//! Fluent construction for [`TraceLogger`].
//!
//! The (since removed) positional `TraceLogger::new(config, clock, ncpus)`
//! constructor grew call sites where the argument roles are invisible
//! (`new(cfg, clk, 4)` — which 4?). [`LoggerBuilder`] names every step and
//! supplies defaults, so the common cases shrink and the unusual ones
//! become readable:
//!
//! ```
//! use ktrace_core::{TraceConfig, TraceLogger};
//! use ktrace_clock::ManualClock;
//! use ktrace_format::MajorId;
//! use std::sync::Arc;
//!
//! let logger = TraceLogger::builder()
//!     .geometry(TraceConfig::small())
//!     .clock(Arc::new(ManualClock::new(1, 1)))
//!     .ncpus(2)
//!     .enable_only(&[MajorId::TEST, MajorId::LOCK])
//!     .build()
//!     .unwrap();
//! assert_eq!(logger.ncpus(), 2);
//! assert!(!logger.mask().is_enabled(MajorId::SCHED));
//! ```

use crate::config::TraceConfig;
use crate::error::CoreError;
use crate::logger::TraceLogger;
use ktrace_clock::{ClockSource, SyncClock};
use ktrace_format::{MajorId, TraceMask};
use std::sync::Arc;

/// Builder for [`TraceLogger`]; obtained from [`TraceLogger::builder`].
///
/// Defaults: [`TraceConfig::default`] geometry, a [`SyncClock`], one CPU,
/// every major enabled.
pub struct LoggerBuilder {
    config: TraceConfig,
    clock: Option<Arc<dyn ClockSource>>,
    ncpus: usize,
    mask: TraceMask,
}

impl Default for LoggerBuilder {
    fn default() -> LoggerBuilder {
        LoggerBuilder {
            config: TraceConfig::default(),
            clock: None,
            ncpus: 1,
            mask: TraceMask::all_enabled(),
        }
    }
}

impl LoggerBuilder {
    /// Buffer geometry and mode (ring size, buffers per CPU, stream vs
    /// flight recorder).
    pub fn geometry(mut self, config: TraceConfig) -> LoggerBuilder {
        self.config = config;
        self
    }

    /// The clock every CPU region timestamps with. Defaults to a
    /// [`SyncClock`].
    pub fn clock(mut self, clock: Arc<dyn ClockSource>) -> LoggerBuilder {
        self.clock = Some(clock);
        self
    }

    /// Number of per-CPU regions. Defaults to 1.
    pub fn ncpus(mut self, ncpus: usize) -> LoggerBuilder {
        self.ncpus = ncpus;
        self
    }

    /// Start with only these majors enabled in the trace mask.
    pub fn enable_only(mut self, majors: &[MajorId]) -> LoggerBuilder {
        self.mask = TraceMask::with_majors(majors);
        self
    }

    /// Builds the logger.
    pub fn build(self) -> Result<TraceLogger, CoreError> {
        let clock = self.clock.unwrap_or_else(|| Arc::new(SyncClock::new()));
        TraceLogger::construct(self.config, clock, self.ncpus, self.mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_a_one_cpu_logger() {
        let logger = TraceLogger::builder().build().unwrap();
        assert_eq!(logger.ncpus(), 1);
        assert!(logger.mask().is_enabled(MajorId::TEST));
    }

    #[test]
    fn enable_only_sets_the_listed_majors_and_control() {
        let logger = TraceLogger::builder()
            .geometry(TraceConfig::small())
            .enable_only(&[MajorId::FS])
            .build()
            .unwrap();
        assert_eq!(
            logger.mask().get(),
            MajorId::CONTROL.bit() | MajorId::FS.bit()
        );
    }

    #[test]
    fn invalid_geometry_still_errors() {
        let bad = TraceConfig {
            buffer_words: 7,
            ..TraceConfig::small()
        };
        assert!(TraceLogger::builder().geometry(bad).build().is_err());
    }
}
