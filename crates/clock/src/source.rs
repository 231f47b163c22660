//! The synchronized and manual [`ClockSource`] implementations. The trait
//! itself is on the logging path, so it lives in `ktrace-lockless`.

pub use ktrace_lockless::ClockSource;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A globally synchronized nanosecond clock (PowerPC timebase model).
///
/// All CPUs observe the same monotonically increasing value: nanoseconds since
/// the clock was created. Where the kernel itself keeps time with the TSC
/// (x86-64 Linux, clocksource `tsc`: the kernel has checked that the counter
/// is invariant and synchronized across CPUs), a read is one ordered `rdtsc`
/// scaled to nanoseconds — the nearest a PC comes to PowerPC's `mftb`.
/// Anywhere else (another arch or OS, another clocksource, Miri) it is
/// `Instant::elapsed`.
#[derive(Debug)]
pub struct SyncClock {
    origin: Instant,
    /// The TSC at `origin` and the process's calibrated scale; `None` on
    /// the `Instant` path.
    tsc: Option<TscScale>,
}

#[derive(Debug, Clone, Copy)]
struct TscScale {
    base: u64,
    /// Nanoseconds per tick in 32.32 fixed point.
    mult: u64,
}

impl SyncClock {
    /// Creates a clock whose epoch is "now". The first clock of a process
    /// calibrates the TSC (≈ 5 ms asleep); later ones reuse that scale.
    pub fn new() -> SyncClock {
        let tsc = tsc_mult().map(|mult| TscScale {
            base: rdtsc_ordered(),
            mult,
        });
        SyncClock {
            origin: Instant::now(),
            tsc,
        }
    }
}

impl Default for SyncClock {
    fn default() -> SyncClock {
        SyncClock::new()
    }
}

impl ClockSource for SyncClock {
    #[inline]
    fn now(&self, _cpu: usize) -> u64 {
        match self.tsc {
            Some(s) => ticks_to_ns(rdtsc_ordered(), s.base, s.mult),
            None => self.origin.elapsed().as_nanos() as u64,
        }
    }

    fn ticks_per_sec(&self) -> u64 {
        1_000_000_000
    }

    fn synchronized(&self) -> bool {
        true
    }
}

/// `(tsc − base) · mult >> 32`: nanoseconds since `base` for `mult` in
/// 32.32 fixed point. A read below `base` gives 0. The product is 128-bit,
/// so it cannot overflow; the result fits 64 bits for up to 2⁶² ticks at
/// any rate above 250 MHz (2⁶² ticks is 146 years at 1 GHz).
#[inline]
fn ticks_to_ns(tsc: u64, base: u64, mult: u64) -> u64 {
    ((u128::from(tsc.saturating_sub(base)) * u128::from(mult)) >> 32) as u64
}

/// The 32.32 fixed-point `mult` that makes `ticks` (non-zero) read as `ns`.
fn mult_for(ticks: u64, ns: u64) -> u64 {
    ((u128::from(ns) << 32) / u128::from(ticks)) as u64
}

/// The process's TSC scale, calibrated by the first caller; `None` where
/// the TSC is not the kernel's timebase. Reached from [`SyncClock::new`]
/// only, never from `now`.
fn tsc_mult() -> Option<u64> {
    static MULT: OnceLock<Option<u64>> = OnceLock::new();
    *MULT.get_or_init(|| {
        if !tsc_is_the_timebase() {
            return None;
        }
        // Sleep between the two pairs: the calibration costs wall time,
        // not CPU.
        let (tsc0, at0) = tsc_instant_pair()?;
        std::thread::sleep(Duration::from_millis(5));
        let (tsc1, at1) = tsc_instant_pair()?;
        let ticks = tsc1.checked_sub(tsc0).filter(|&t| t > 0)?;
        let ns = u64::try_from(at1.duration_since(at0).as_nanos()).ok()?;
        Some(mult_for(ticks, ns)).filter(|&m| m > 0)
    })
}

/// One `(TSC, Instant)` pair: of several `(tsc, Instant, tsc)` brackets the
/// tightest, its TSC taken at the midpoint, so a preemption inside one
/// bracket cannot skew the scale.
fn tsc_instant_pair() -> Option<(u64, Instant)> {
    (0..16)
        .filter_map(|_| {
            let before = rdtsc_ordered();
            let at = Instant::now();
            let width = rdtsc_ordered().checked_sub(before)?;
            Some((width, before + width / 2, at))
        })
        .min_by_key(|&(width, ..)| width)
        .map(|(_, tsc, at)| (tsc, at))
}

/// True where the kernel keeps time with the TSC, and so vouches that it
/// is invariant and synchronized across CPUs.
fn tsc_is_the_timebase() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux", not(miri)))
        && std::fs::read_to_string(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource",
        )
        .is_ok_and(|source| source.trim() == "tsc")
}

/// Linux's `rdtsc_ordered`: the `lfence` keeps the read from executing
/// before the loads that precede it (the reservation index), or a stamp
/// could be older than the slot it claims.
///
/// The workspace's one `unsafe` block: every other crate inherits
/// `forbid(unsafe_code)`, and this crate denies it everywhere but here.
#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
#[inline(always)]
#[allow(unsafe_code)]
fn rdtsc_ordered() -> u64 {
    use std::arch::x86_64::{_mm_lfence, _rdtsc};
    // SAFETY: unprivileged x86-64 baseline instructions (`lfence` is SSE2)
    // that touch no memory; `rdtsc` traps only after `prctl(PR_SET_TSC)`,
    // and that trap is a signal, not undefined behaviour.
    unsafe {
        _mm_lfence();
        _rdtsc()
    }
}

/// No TSC here: [`tsc_is_the_timebase`] is false, so no clock holds a
/// [`TscScale`] and this is never called.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(miri))))]
fn rdtsc_ordered() -> u64 {
    0
}

/// A manually advanced clock for deterministic tests.
///
/// All CPUs observe the same atomic counter; tests advance it explicitly.
/// `now` also auto-increments by `auto_step` per read so that two reads from
/// a CAS retry loop are never forced to be identical (set `auto_step = 0` to
/// disable). The default clock stands at 0 and moves only when set.
#[derive(Debug, Default)]
pub struct ManualClock {
    ticks: AtomicU64,
    auto_step: u64,
}

impl ManualClock {
    /// A clock starting at `start` that advances by `auto_step` on each read.
    pub fn new(start: u64, auto_step: u64) -> ManualClock {
        ManualClock {
            ticks: AtomicU64::new(start),
            auto_step,
        }
    }

    /// Advances the clock by `delta` ticks.
    pub fn advance(&self, delta: u64) {
        self.ticks.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the clock to an absolute value (must not move backwards in use).
    pub fn set(&self, value: u64) {
        self.ticks.store(value, Ordering::Relaxed);
    }
}

impl ClockSource for ManualClock {
    #[inline]
    fn now(&self, _cpu: usize) -> u64 {
        if self.auto_step == 0 {
            self.ticks.load(Ordering::Relaxed)
        } else {
            self.ticks.fetch_add(self.auto_step, Ordering::Relaxed)
        }
    }

    fn ticks_per_sec(&self) -> u64 {
        1_000_000_000
    }

    fn synchronized(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_clock_is_monotonic_across_cpus() {
        let c = SyncClock::new();
        let mut last = 0;
        for i in 0..1000 {
            let t = c.now(i % 4);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn sync_clock_reports_ns() {
        let c = SyncClock::new();
        assert_eq!(c.ticks_per_sec(), 1_000_000_000);
        assert!(c.synchronized());
        let a = c.now(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = c.now(1);
        assert!(b - a >= 1_500_000, "elapsed {} ns", b - a);
    }

    /// Player `me` of a two-thread stamp handoff: on each of its turns it
    /// receives the other player's stamp (Acquire), reads the clock, and
    /// hands its own stamp back (Release). Returns how many of its reads
    /// were older than the stamp they received.
    fn pass_the_stamp(
        c: &SyncClock,
        turn: &AtomicU64,
        stamp: &AtomicU64,
        me: u64,
        handoffs: u64,
    ) -> u64 {
        let mut inversions = 0;
        for round in (me..handoffs).step_by(2) {
            let mut spins = 0u32;
            while turn.load(Ordering::Acquire) != round {
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            let received = stamp.load(Ordering::Relaxed);
            let mine = c.now(me as usize);
            inversions += u64::from(mine < received);
            stamp.store(mine, Ordering::Relaxed);
            turn.store(round + 1, Ordering::Release);
        }
        inversions
    }

    #[test]
    fn stamps_handed_between_threads_never_invert() {
        // A read taken after receiving a stamp must not be older than it
        // (E17's inversion, across threads).
        let handoffs = if cfg!(miri) { 200 } else { 100_000 };
        let c = SyncClock::new();
        let (turn, stamp) = (AtomicU64::new(0), AtomicU64::new(0));
        let inversions: u64 = std::thread::scope(|s| {
            let (c, turn, stamp) = (&c, &turn, &stamp);
            let players: Vec<_> = (0..2)
                .map(|me| s.spawn(move || pass_the_stamp(c, turn, stamp, me, handoffs)))
                .collect();
            players.into_iter().map(|p| p.join().unwrap()).sum()
        });
        assert_eq!(inversions, 0);
    }

    #[test]
    fn sync_clock_agrees_with_instant_within_a_tenth_of_a_percent() {
        let c = SyncClock::new();
        // Each clock read sits between two `Instant`s, so the true interval
        // between two reads lies between the inner and the outer interval:
        // the brackets' widths are the tolerance a preemption can add.
        let bracketed = || {
            let before = Instant::now();
            let t = c.now(0);
            (before, t, Instant::now())
        };
        let (before0, t0, after0) = bracketed();
        std::thread::sleep(Duration::from_millis(25));
        let (before1, t1, after1) = bracketed();
        let inner = before1.duration_since(after0).as_nanos() as f64;
        let outer = after1.duration_since(before0).as_nanos() as f64;
        let read = (t1 - t0) as f64;
        let slack = 0.001 * inner;
        assert!(
            read >= inner - slack && read <= outer + slack,
            "clock read {read} ns; Instant says {inner}..={outer} ns"
        );
    }

    #[test]
    fn tsc_scale_is_exact_floors_below_base_and_does_not_overflow() {
        let base = 123_456_789;
        let two_ghz = mult_for(2_000_000_000, 1_000_000_000);
        assert!(ticks_to_ns(base + 2_000_000_000, base, two_ghz).abs_diff(1_000_000_000) <= 1);
        // An uneven rate still reads one second as 1e9 ± 1 ns.
        let odd = mult_for(2_899_999_123, 1_000_000_000);
        assert!(ticks_to_ns(base + 2_899_999_123, base, odd).abs_diff(1_000_000_000) <= 1);
        assert_eq!(ticks_to_ns(base - 1, base, two_ghz), 0);
        assert_eq!(ticks_to_ns(1 << 62, 0, two_ghz), 1 << 61);
    }

    #[test]
    fn the_tsc_path_is_taken_where_the_kernel_keeps_time_with_the_tsc() {
        // Read apart from `tsc_is_the_timebase`, so a broken gate fails too.
        let kernel_uses_tsc = cfg!(all(target_arch = "x86_64", target_os = "linux", not(miri)))
            && std::fs::read_to_string(
                "/sys/devices/system/clocksource/clocksource0/current_clocksource",
            )
            .is_ok_and(|source| source.trim() == "tsc");
        assert_eq!(SyncClock::new().tsc.is_some(), kernel_uses_tsc);
    }

    #[test]
    fn manual_clock_advances_explicitly() {
        let c = ManualClock::new(100, 0);
        assert_eq!(c.now(0), 100);
        assert_eq!(c.now(3), 100);
        c.advance(50);
        assert_eq!(c.now(0), 150);
        c.set(1000);
        assert_eq!(c.now(0), 1000);
    }

    #[test]
    fn manual_clock_auto_step_makes_reads_distinct() {
        let c = ManualClock::new(0, 1);
        let a = c.now(0);
        let b = c.now(0);
        assert!(b > a);
    }
}
