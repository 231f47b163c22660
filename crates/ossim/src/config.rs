//! Machine configuration.

use std::time::Duration;

/// Tunables of the simulated machine, read by both executors.
///
/// Durations are the executor's own time: wall time on the real-thread
/// [`Machine`](crate::Machine), virtual time on `ktrace-vsim`'s
/// `VirtualMachine`. The kernel's fixed costs are constants in
/// [`kernel`](crate::kernel), scaled by `time_scale`.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Number of simulated CPUs.
    pub ncpus: usize,
    /// Scheduler time slice.
    pub time_slice: Duration,
    /// Statistical PC-sampling period; `None` disables sampling.
    pub pc_sample_period: Option<Duration>,
    /// Allocator region locks: 1 is the paper's contended starting point,
    /// more model the fix ("fixed it, and then ran the tool again").
    pub alloc_regions: usize,
    /// How long a CPU with nothing runnable waits before looking again.
    pub idle_quantum: Duration,
    /// Watchdog: abort the run if no task completes for this long
    /// (catches simulated deadlocks; the flight recorder then holds the
    /// evidence, as in §4.2). The virtual executor also aborts at once when
    /// every live task waits on a lock another task holds.
    pub watchdog: Duration,
    /// Multiplies every kernel cost (quick tests use < 1.0).
    pub time_scale: f64,
}

impl MachineConfig {
    /// A machine with `ncpus` CPUs at full cost.
    pub fn new(ncpus: usize) -> MachineConfig {
        MachineConfig {
            ncpus,
            time_slice: Duration::from_micros(200),
            pc_sample_period: Some(Duration::from_micros(50)),
            alloc_regions: 1,
            idle_quantum: Duration::from_micros(20),
            watchdog: Duration::from_secs(5),
            time_scale: 1.0,
        }
    }

    /// Scales a nanosecond cost by the configured time scale.
    pub fn scaled(&self, ns: u64) -> u64 {
        (ns as f64 * self.time_scale) as u64
    }

    /// A configuration with all costs scaled (for fast tests).
    pub fn fast_test(ncpus: usize) -> MachineConfig {
        let mut c = MachineConfig::new(ncpus);
        c.time_scale = 0.25;
        c.time_slice = Duration::from_micros(50);
        c.pc_sample_period = Some(Duration::from_micros(20));
        c.watchdog = Duration::from_secs(2);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_costs() {
        let mut c = MachineConfig::new(2);
        assert_eq!(c.scaled(1000), 1000);
        c.time_scale = 0.5;
        assert_eq!(c.scaled(1000), 500);
        c.time_scale = 2.0;
        assert_eq!(c.scaled(1000), 2000);
    }
}
