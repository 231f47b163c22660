//! Lock-free counter blocks and log2 histograms — the hot half of the crate.
//!
//! **The tallies run inside the lockless reservation loop itself**: the
//! loop in `ktrace-lockless` calls the [`ReserveTally`] impl below, and the
//! logger calls `tally_masked`. Those bodies are the std-side edge of the
//! logging path — the crate they run in can allocate — so each must stay
//! free of heap allocation, blocking locks, I/O and panics by review.
//! Relaxed atomic arithmetic on the owning CPU's padded cache line is the
//! entire instruction budget.
//!
//! A data event itself is tallied nowhere on that path: its commit add
//! counts it in the high half of its buffer slot's [`CommitWord`], which
//! this registry owns, and whoever retires the slot moves that half into
//! `events_logged` (`tally_retired`, once per buffer). A snapshot adds the
//! halves still live in the slots, so it is exact at rest, and one that
//! races a retire can only miss that buffer's events.
//!
//! Counters come in two tiers, each a protocol role, so a tally can only do
//! what its tier allows:
//!
//! * **exact** — [`ExactCounter`], a relaxed `fetch_add`, for counts that
//!   back accounting invariants (`events_lost` must make the difference
//!   between `events_logged` and a drained file exact) or that only rare
//!   paths touch (wraps, drops, retries, fillers — a locked RMW there is
//!   noise). `events_logged` is a [`RetiredCount`], the exact tier's
//!   release/acquire variant, so a reader never counts an event both
//!   retired and live;
//! * **statistic** — [`StatisticCounter`], a relaxed load+store pair. The
//!   owning CPU is the only hot-path writer, so the pair is exact in the
//!   common case, and a same-CPU multi-writer interleaving can at worst lose
//!   a count — which a latency histogram or mask tally tolerates. On the
//!   host this replaces a ~20-cycle locked RMW with two plain moves, which
//!   is what keeps the E20 telemetry gate under 1%. (Promoting the histogram
//!   buckets to the exact tier was tried and measured: the extra locked RMW
//!   per event pushed the gate past 2%, so multi-writer runs accept
//!   undercounted wait observations instead — `tests/telemetry_e2e.rs`
//!   asserts the tolerant direction.)
//!
//! Each block is declared once, as a [`counter_block!`] table: the counter
//! struct, its `new()` and getters, the snapshot struct and everything that
//! reads one are generated from the rows (see [`crate::schema`]). What is
//! hand-written here is the hot half — the `tally_*` / `observe_*`
//! functions, the loop's among them in the `ReserveTally` impl. **Adding a counter** is one row, which names its tier, one
//! `tally_*`, and the call site.

use crate::counter_block;
use crate::snapshot::TelemetrySnapshot;
use ktrace_format::protocol::{CommitWord, ExactCounter, RetiredCount, StatisticCounter};
use ktrace_lockless::ReserveTally;

/// Number of histogram buckets. Bucket 0 holds zero-valued observations;
/// bucket `i` (for `i >= 1`) holds values in `[2^(i-1), 2^i)`; the last
/// bucket additionally absorbs everything larger (≈ 2.1 s in nanoseconds).
pub const HIST_BUCKETS: usize = 32;

/// The bucket index a value lands in: `0` for `0`, else
/// `min(bit_length(value), HIST_BUCKETS - 1)`.
#[inline]
pub const fn bucket_index(value: u64) -> usize {
    let bits = (64 - value.leading_zeros()) as usize;
    if bits < HIST_BUCKETS {
        bits
    } else {
        HIST_BUCKETS - 1
    }
}

/// The smallest value that lands in bucket `i` (the bucket's lower bound).
#[inline]
pub const fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A fixed-array, log2-bucketed latency histogram. `observe` is one or two
/// statistic bumps (single-writer discipline); memory never grows.
#[derive(Debug)]
pub struct Histogram {
    buckets: [StatisticCounter; HIST_BUCKETS],
    sum: StatisticCounter,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { StatisticCounter::new(0) }; HIST_BUCKETS],
            sum: StatisticCounter::new(0),
        }
    }

    /// Records one observation. The common hot-path case — a zero wait from
    /// a first-try reservation — touches only bucket 0.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].bump(1);
        if value != 0 {
            self.sum.bump(value);
        }
    }

    /// A relaxed copy of the bucket counts.
    pub fn snap(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        let mut i = 0;
        while i < HIST_BUCKETS {
            out[i] = self.buckets[i].load();
            i += 1;
        }
        out
    }

    /// Sum of all observed values (relaxed; may trail the bucket counts by
    /// an in-flight observation).
    pub fn sum(&self) -> u64 {
        self.sum.load()
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

counter_block! {
    /// One CPU's counter block, one per region, aligned to two cache lines
    /// (adjacent-line prefetch) so a tally never contends with another CPU's.
    #[derive(Debug, Default)]
    #[repr(align(128))]
    pub struct CpuCounters;
    /// Plain-data copy of one CPU's counter block.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct CpuTelemetry {
        /// The CPU index this block belongs to.
        pub cpu: usize,
    }
    counters {
        events_logged: RetiredCount = "Data events successfully logged."
            => "ktrace_events_logged_total", wire "events_logged";
        events_masked: StatisticCounter = "Log calls rejected by the trace mask."
            => "ktrace_events_masked_total", wire "events_masked";
        events_dropped: ExactCounter = "Events dropped to stream-mode consumer overrun."
            => "ktrace_events_dropped_total", wire "events_dropped";
        cas_retries: ExactCounter = "Failed reservation compare-and-swaps."
            => "ktrace_cas_retries_total", wire "cas_retries";
        filler_words: ExactCounter = "Filler words written at buffer boundaries."
            => "ktrace_filler_words_total", wire "filler_words";
        buffer_wraps: ExactCounter = "Buffer-boundary crossings (reservation slow path)."
            => "ktrace_buffer_wraps_total", wire "buffer_wraps";
        flight_overwrites: ExactCounter = "Unconsumed buffers overwritten in flight-recorder mode."
            => "ktrace_flight_overwrites_total", wire "flight_overwrites";
    }
    histograms {
        reserve_wait: Histogram, reserve_wait_sum =
            "Reservation wait from first to winning CAS attempt, clock ticks."
            => "ktrace_reserve_wait_ticks";
    }
    totals { TelemetrySnapshot.per_cpu }
}

impl CpuCounters {
    /// One log call rejected by the trace-mask fast path. A statistic
    /// bump: the masked-off check is the paper's "4 instructions" path
    /// and must stay near-free.
    #[inline]
    pub fn tally_masked(&self) {
        self.events_masked.bump(1);
    }
}

/// The counts the reservation loop in `ktrace-lockless` reports, each on
/// this CPU's block.
impl ReserveTally for CpuCounters {
    /// `events_dropped` counts data events only, as `events_logged` does:
    /// a refused heartbeat or audit record is not lost data.
    #[inline]
    fn tally_dropped(&self) {
        self.events_dropped.add(1);
    }

    #[inline]
    fn tally_cas_retry(&self) {
        self.cas_retries.add(1);
    }

    #[inline]
    fn tally_filler_words(&self, words: u64) {
        self.filler_words.add(words);
    }

    #[inline]
    fn tally_wrap(&self) {
        self.buffer_wraps.add(1);
    }

    #[inline]
    fn tally_overwrite(&self) {
        self.flight_overwrites.add(1);
    }

    /// The wait is 0 when the first CAS won; the clock is already read per
    /// attempt, so this costs no extra clock query.
    #[inline]
    fn observe_reserve_wait(&self, ticks: u64) {
        self.reserve_wait.observe(ticks);
    }

    /// Once per retired buffer, not per event: this backs the `file events
    /// == events_logged − events_lost` invariant.
    #[inline]
    fn tally_retired(&self, events: u64) {
        self.events_logged.add(events);
    }
}

counter_block! {
    /// Drain-side counters, fed by `io::session`'s background drainer. One
    /// block per pipeline (the drainer is a single thread), not per CPU.
    #[derive(Debug, Default)]
    pub struct SinkCounters;
    /// Plain-data copy of the drain-side block.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct SinkTelemetry {}
    counters {
        records_written: ExactCounter = "Buffer records written to the sink."
            => "ktrace_sink_records_written_total", wire "sink_records_written";
        write_retries: ExactCounter = "Sink writes retried after transient errors."
            => "ktrace_sink_write_retries_total";
        buffers_dropped: ExactCounter = "Drained buffers abandoned after the retry budget ran out."
            => "ktrace_sink_buffers_dropped_total", wire "sink_buffers_dropped";
        events_lost: ExactCounter = "Already-logged events lost in dropped buffers."
            => "ktrace_sink_events_lost_total";
        heartbeats_emitted: ExactCounter = "Heartbeat events emitted into the trace."
            => "ktrace_heartbeats_emitted_total";
        grace_waits: ExactCounter = "Closed buffers the drainer had to wait on for a straggling commit."
            => "ktrace_sink_grace_waits_total";
        drainer_wakeups: ExactCounter = "Returns of the drainer from its park: a closed buffer, a heartbeat due, or a stop."
            => "ktrace_drainer_wakeups_total";
    }
    histograms {
        drain_write: Histogram, drain_write_sum = "Sink write latency, nanoseconds."
            => "ktrace_drain_write_ns";
    }
    totals {}
}

impl SinkCounters {
    /// One buffer record written to the sink.
    #[inline]
    pub fn tally_record_written(&self) {
        self.records_written.add(1);
    }

    /// `n` retries from one record write, tallied at once.
    #[inline]
    pub fn tally_write_retries(&self, n: u64) {
        self.write_retries.add(n);
    }

    /// One drained buffer abandoned after the retry budget ran out, losing
    /// `events` already-logged data events.
    #[inline]
    pub fn tally_buffer_dropped(&self, events: u64) {
        self.buffers_dropped.add(1);
        self.events_lost.add(events);
    }

    /// One heartbeat event emitted into the trace.
    #[inline]
    pub fn tally_heartbeat(&self) {
        self.heartbeats_emitted.add(1);
    }

    /// One `take_buffer` that found a closed buffer not yet fully committed
    /// and entered the straggler grace wait (cold: the drainer's branch).
    #[inline]
    pub fn tally_grace_wait(&self) {
        self.grace_waits.add(1);
    }

    /// One return of the drainer from its park (cold: the drainer's thread).
    #[inline]
    pub fn tally_drainer_wakeup(&self) {
        self.drainer_wakeups.add(1);
    }

    /// Records one sink write's latency in nanoseconds.
    #[inline]
    pub fn observe_drain_write(&self, ns: u64) {
        self.drain_write.observe(ns);
    }
}

counter_block! {
    /// Recovery counters for salvage passes, tallied by whoever runs one
    /// ([`SalvageCounters::tally_run`]); nothing in `io::salvage` feeds them.
    #[derive(Debug, Default)]
    pub struct SalvageCounters;
    /// Plain-data copy of the salvage block.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct SalvageTelemetry {}
    counters {
        runs: ExactCounter = "Salvage passes run."
            => "ktrace_salvage_runs_total";
        records_recovered: ExactCounter = "Clean records recovered by salvage."
            => "ktrace_salvage_records_recovered_total";
        events_recovered: ExactCounter = "Events recovered by salvage."
            => "ktrace_salvage_events_recovered_total";
        records_damaged: ExactCounter = "Records found damaged by salvage."
            => "ktrace_salvage_records_damaged_total";
        bytes_skipped: ExactCounter = "Bytes skipped as unrecoverable by salvage."
            => "ktrace_salvage_bytes_skipped_total";
    }
    histograms {}
    totals {}
}

impl SalvageCounters {
    /// Accounts one salvage pass.
    pub fn tally_run(&self, records: u64, events: u64, damaged: u64, bytes_skipped: u64) {
        self.runs.add(1);
        self.records_recovered.add(records);
        self.events_recovered.add(events);
        self.records_damaged.add(damaged);
        self.bytes_skipped.add(bytes_skipped);
    }
}

/// The whole pipeline's telemetry registry: one aligned [`CpuCounters`] block
/// per CPU, each CPU's buffer-slot commit words, and the shared sink and
/// salvage blocks. The logger and the drain session feed the same instance,
/// so one snapshot describes the full path from reservation to file; the
/// salvage block counts only the passes a caller tallies into it with
/// [`SalvageCounters::tally_run`] (the salvage reader itself does not).
#[derive(Debug)]
pub struct Telemetry {
    per_cpu: Box<[CpuCounters]>,
    /// `slots` commit words per CPU, CPU-major; the logger's regions borrow
    /// them for their reservation loops.
    commits: Box<[CommitWord]>,
    slots: usize,
    sink: SinkCounters,
    salvage: SalvageCounters,
}

impl Telemetry {
    /// A registry for `ncpus` CPUs (all counters zero) with no commit words,
    /// for counters fed by hand.
    pub fn new(ncpus: usize) -> Telemetry {
        Telemetry::with_slots(ncpus, 0)
    }

    /// A registry for `ncpus` CPUs that owns `slots` commit words per CPU,
    /// one per buffer slot of a region with that many buffers.
    pub fn with_slots(ncpus: usize, slots: usize) -> Telemetry {
        Telemetry {
            per_cpu: (0..ncpus).map(|_| CpuCounters::new()).collect(),
            commits: (0..ncpus * slots).map(|_| CommitWord::new(0)).collect(),
            slots,
            sink: SinkCounters::new(),
            salvage: SalvageCounters::new(),
        }
    }

    /// CPU `cpu`'s counter block. Hot: a bounds-checked index, nothing more.
    #[inline]
    pub fn cpu(&self, cpu: usize) -> &CpuCounters {
        &self.per_cpu[cpu]
    }

    /// CPU `cpu`'s buffer-slot commit words. Hot: a bounds-checked slice.
    #[inline]
    pub fn commits(&self, cpu: usize) -> &[CommitWord] {
        &self.commits[cpu * self.slots..][..self.slots]
    }

    /// Data events logged on `cpu`: the retired count, then the event
    /// halves still live in its commit words. Exact at rest; a read racing
    /// a retire can miss the retiring buffer's events, never count them
    /// twice (see [`RetiredCount`]).
    pub fn events_logged(&self, cpu: usize) -> u64 {
        let retired = self.cpu(cpu).events_logged();
        retired + self.live_events(cpu)
    }

    /// The event halves of `cpu`'s commit words: data events committed to
    /// buffers not yet retired.
    pub(crate) fn live_events(&self, cpu: usize) -> u64 {
        let halves = self.commits(cpu).iter().map(|c| c.load());
        halves.map(CommitWord::events).sum()
    }

    /// Number of per-CPU blocks.
    pub fn ncpus(&self) -> usize {
        self.per_cpu.len()
    }

    /// The drain-side block.
    #[inline]
    pub fn sink(&self) -> &SinkCounters {
        &self.sink
    }

    /// The salvage block.
    pub fn salvage(&self) -> &SalvageCounters {
        &self.salvage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2_shaped() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_floor_inverts_index() {
        // Every bucket's floor must land back in that bucket, and one less
        // than the floor must land in an earlier bucket.
        for i in 0..HIST_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_floor(i)), i, "floor of bucket {i}");
            if i > 1 {
                assert_eq!(bucket_index(bucket_floor(i) - 1), i - 1);
            }
        }
    }

    #[test]
    fn histogram_observe_and_snapshot() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(5);
        h.observe(5);
        h.observe(u64::MAX);
        let snap = h.snap();
        assert_eq!(snap[0], 1);
        assert_eq!(snap[1], 1);
        assert_eq!(snap[bucket_index(5)], 2);
        assert_eq!(snap[HIST_BUCKETS - 1], 1);
        assert_eq!(snap.iter().sum::<u64>(), 5);
        assert_eq!(h.sum(), 11u64.wrapping_add(u64::MAX));
    }

    #[test]
    fn cpu_counters_tally() {
        let c = CpuCounters::new();
        c.tally_retired(2);
        c.tally_masked();
        c.tally_dropped();
        c.tally_cas_retry();
        c.tally_filler_words(17);
        c.tally_wrap();
        c.tally_overwrite();
        c.observe_reserve_wait(3);
        assert_eq!(c.events_logged(), 2);
        assert_eq!(c.events_masked(), 1);
        assert_eq!(c.events_dropped(), 1);
        assert_eq!(c.cas_retries(), 1);
        assert_eq!(c.filler_words(), 17);
        assert_eq!(c.buffer_wraps(), 1);
        assert_eq!(c.flight_overwrites(), 1);
        assert_eq!(c.reserve_wait().snap()[bucket_index(3)], 1);
    }

    #[test]
    fn registry_shape() {
        let t = Telemetry::with_slots(4, 2);
        assert_eq!(t.ncpus(), 4);
        assert_eq!(t.commits(3).len(), 2);
        t.cpu(3).tally_retired(1);
        t.commits(3)[1].commit(7, 2);
        assert_eq!(
            t.cpu(3).events_logged(),
            1,
            "the block holds the retired count"
        );
        assert_eq!(t.events_logged(3), 3, "the registry adds the live halves");
        assert_eq!(t.events_logged(0), 0);
        t.sink().tally_record_written();
        t.sink().tally_write_retries(1);
        t.sink().tally_buffer_dropped(12);
        t.sink().observe_drain_write(1000);
        assert_eq!(t.sink().records_written(), 1);
        assert_eq!(t.sink().write_retries(), 1);
        assert_eq!(t.sink().buffers_dropped(), 1);
        assert_eq!(t.sink().events_lost(), 12);
        assert_eq!(t.sink().drain_write().sum(), 1000);
        t.salvage().tally_run(5, 40, 2, 128);
        assert_eq!(t.salvage().runs(), 1);
        assert_eq!(t.salvage().records_recovered(), 5);
        assert_eq!(t.salvage().events_recovered(), 40);
        assert_eq!(t.salvage().records_damaged(), 2);
        assert_eq!(t.salvage().bytes_skipped(), 128);
    }

    #[test]
    fn event_counts_stay_exact_under_same_slot_contention() {
        // Several writer threads share each CPU's region (the CAS-loop
        // multi-writer case) and log through the reservation loop, which
        // counts each event in its commit word. In flight-recorder mode the
        // writers themselves retire slots as they wrap, racing each other's
        // commits into them, and the count backing the events-in-file
        // invariant must still lose no update.
        use ktrace_format::protocol::{AcquireRelease, MessageWord, ReservationTail};
        use ktrace_format::MajorId;
        use ktrace_lockless::{ClockSource, Mode, Ring};

        struct Zero;
        impl ClockSource for Zero {
            fn now(&self, _cpu: usize) -> u64 {
                0
            }
            fn ticks_per_sec(&self) -> u64 {
                1
            }
            fn synchronized(&self) -> bool {
                true
            }
        }
        struct Region {
            words: Vec<MessageWord>,
            index: ReservationTail,
            consumed: AcquireRelease,
            dropped: ExactCounter,
        }
        const BUFFER_WORDS: usize = 64;
        const BUFFERS: usize = 4;

        let t = std::sync::Arc::new(Telemetry::with_slots(2, BUFFERS));
        let regions: std::sync::Arc<Vec<Region>> = std::sync::Arc::new(
            (0..2)
                .map(|_| Region {
                    words: (0..BUFFER_WORDS * BUFFERS)
                        .map(|_| MessageWord::new(0))
                        .collect(),
                    index: ReservationTail::new(0),
                    consumed: AcquireRelease::new(0),
                    dropped: ExactCounter::new(0),
                })
                .collect(),
        );
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let (t, regions) = (t.clone(), regions.clone());
                std::thread::spawn(move || {
                    let (cpu, r) = (i % 2, &regions[i % 2]);
                    let ring = Ring {
                        cpu,
                        buffer_words: BUFFER_WORDS,
                        buffers_per_cpu: BUFFERS,
                        mode: Mode::FlightRecorder,
                        words: &r.words,
                        index: &r.index,
                        committed: t.commits(cpu),
                        consumed: &r.consumed,
                        dropped: &r.dropped,
                        clock: &Zero,
                        tally: t.cpu(cpu),
                    };
                    for n in 0..10_000u64 {
                        let payload = [n; 3];
                        assert_eq!(
                            ring.append(MajorId::TEST, 0, &payload[..(n % 4) as usize])
                                .map(|_| ()),
                            Some(())
                        );
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert!(t.cpu(0).flight_overwrites() > 0, "the writers wrapped");
        assert_eq!(t.events_logged(0) + t.events_logged(1), 40_000);
    }

    #[test]
    fn single_writer_histograms_are_exact() {
        // The statistic tier is exact under its intended discipline: one
        // writer per CPU slot.
        let t = std::sync::Arc::new(Telemetry::new(4));
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        t.cpu(i).observe_reserve_wait(i as u64);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        for i in 0..4 {
            let h = t.cpu(i).reserve_wait().snap();
            assert_eq!(h.iter().sum::<u64>(), 10_000, "cpu {i} observations");
            assert_eq!(h[bucket_index(i as u64)], 10_000);
            assert_eq!(t.cpu(i).reserve_wait().sum(), 10_000 * i as u64);
        }
    }
}
