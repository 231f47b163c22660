//! What every workload shares: its arguments, the scratch directory, the
//! repeated set-up, and the loop that repeats a timed repetition until the
//! run's seconds are spent.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's own output directory, `benchmark/out/`: the only place it
/// writes.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One directory for all scratch data of a run, removed when the run ends,
/// whether it returns or unwinds.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let dir = out_dir().join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The arguments of one run.
pub struct Ctx<'a> {
    pub seed: u64,
    /// How long the timed repetitions of an end-to-end run may take in all.
    pub seconds: f64,
    pub scratch: &'a Path,
}

/// One timed repetition of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Events offered to the entry point and carried through the whole path.
    pub events: u64,
    pub wall_ns: f64,
    /// Cost per event on the thread that hands events to the entry point.
    pub app_ns_per_event: f64,
    /// Process CPU, all threads, over the repetition.
    pub cpu_ns: f64,
    /// Bytes at the workload's output.
    pub out_bytes: u64,
    /// Data events behind `out_bytes`.
    pub out_events: u64,
    /// Events attempted but lost, dropped, unrecovered though intact, or
    /// unaccounted.
    pub failed: u64,
}

/// What an end-to-end run hands back to be summarised and printed.
#[derive(Default)]
pub struct E2eRun {
    pub setup_s: Vec<f64>,
    pub reps: Vec<Rep>,
    /// `VmHWM` when set-up and the verified warm-up are done: the peak of a
    /// first pass on a fresh heap, which is what a one-shot tool's user
    /// sees, and which repeats. Read later, it follows how much freed
    /// memory the allocator happened to keep, and how many repetitions the
    /// host's speed let into the run.
    pub peak_rss_bytes: u64,
    /// Events of the verified warm-up repetitions, `(attempted, failed)`.
    pub warmup: (u64, u64),
    /// Verification failures; any makes the command exit non-zero.
    pub problems: Vec<String>,
    /// Workload-specific readings for the human table, `(name, unit, value)`.
    pub extras: Vec<(&'static str, &'static str, f64)>,
}

/// Runs `make` several times and returns the last inputs with every run's
/// duration: set-up time is reported as a median like any other metric. A
/// set-up of milliseconds is repeated more often; the count does not depend
/// on anything else, so that the heap the workload starts on repeats.
pub fn timed_setup<T>(mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut took = Vec::new();
    loop {
        let t0 = Instant::now();
        let made = make();
        took.push(t0.elapsed().as_secs_f64());
        let runs = if took[0] < 0.02 { 15 } else { 5 };
        if took.len() == runs {
            return (made, took);
        }
    }
}

/// Repeats `rep` until the next repetition would overrun `seconds`, at
/// least three times. A repetition that reports a problem ends the run.
pub fn run_reps(seconds: f64, run: &mut E2eRun, mut rep: impl FnMut() -> Result<Rep, String>) {
    const MIN_REPS: usize = 3;
    run.peak_rss_bytes = crate::host::peak_rss_bytes();
    let begun = Instant::now();
    loop {
        match rep() {
            Ok(r) => run.reps.push(r),
            Err(problem) => {
                run.problems.push(problem);
                return;
            }
        }
        let spent = begun.elapsed().as_secs_f64();
        let n = run.reps.len();
        if n >= MIN_REPS && spent + spent / n as f64 > seconds {
            return;
        }
    }
}

/// Fails a check with a message naming what disagreed.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}
