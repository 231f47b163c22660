//! One CPU's trace region: the lockless reservation algorithm (paper Fig. 2).
//!
//! The loop itself — reserve, write, commit, fillers — is
//! [`ktrace_lockless::Ring`], run over this region's borrowed words and
//! counts; this module owns the memory, the consumer side and the drainer
//! wake-up. A region is `buffers_per_cpu` buffers of `buffer_words` 64-bit
//! words. A single *unwrapped* atomic word index advances monotonically; the
//! physical position is `index mod region_words`. To log an event a thread:
//!
//! 1. reads the index, **reads the timestamp** (re-read on every retry so a
//!    later buffer position can never carry an earlier timestamp — the
//!    paper's monotonicity requirement),
//! 2. attempts `CAS(index, old → old + len)`; the winner owns the extent,
//! 3. writes payload words, then the header word (`Release`), then adds the
//!    event length, and one event unless it is a `CONTROL` event, to the
//!    buffer's commit word (`Release`).
//!
//! If the reservation would cross a buffer boundary, the thread instead
//! attempts one CAS that claims *the remainder of the current buffer plus a
//! time anchor (and possibly a dropped-count marker) at the start of the next
//! buffer plus its own event*: `CAS(index, old → next_boundary + anchor +
//! marker + len)`. The winner writes filler header(s) over the remainder, the
//! anchor, the marker, and its event. Losers retry. Thus fillers and anchors
//! need no lock either, and every buffer starts with a full 64-bit time
//! anchor.
//!
//! **Commit words** count one generation of a buffer *slot* each: slot `s`
//! hosts buffer sequences `s, s+n, s+2n, …`, the low half of its word counts
//! the words committed to the current one and the high half the data events
//! among them. Producers only add; the consumer that takes sequence `q`
//! compares the word half against `buffer_words`, then *retires* the slot by
//! subtracting exactly the value it read and moves the event half into the
//! telemetry block's `events_logged` — before it releases the slot to
//! producers, so the next generation starts from zero. A killed or
//! long-blocked logger leaves the count short ("not enough data") for its
//! own buffer only, and one that wakes after its buffer was retired lands
//! its commit in the next generation and pushes that over ("too much") —
//! precisely the two anomalies §3.1 describes detecting with per-buffer
//! counts. The commit words live in the telemetry registry, which adds the
//! event halves still live in them to every snapshot.
//!
//! Payload-before-header write order (the reverse of the paper's pseudo-code)
//! costs nothing and means a non-zero header word implies its payload words
//! were written by the same logger; buffers are zeroed when consumed, so an
//! all-zero header marks an unfinished event. Word-level tearing is
//! impossible (all words are atomic); event-level garbling remains
//! possible and is what the commit counts and reader checks catch.

use crate::config::{Mode, TraceConfig};
use crate::error::CoreError;
use ktrace_clock::ClockSource;
use ktrace_format::protocol::{
    AcquireRelease, CommitWord, ExactCounter, MessageWord, ReservationTail, WakeFlag,
};
use ktrace_format::{MajorId, MinorId};
use ktrace_lockless::{ReserveTally, Ring};
use ktrace_telemetry::{CpuCounters, Telemetry};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long [`CpuRegion::take_buffer`] waits for a straggling commit before
/// it reports the buffer garbled: long enough for a descheduled writer to
/// run again on a busy host, short enough that a killed one stalls the
/// drainer only briefly.
const STRAGGLER_GRACE: Duration = Duration::from_millis(100);

/// The drainer's wake-up handshake, shared by every region of one logger:
/// the writer that closes a buffer unparks the consumer waiting in
/// [`TraceLogger::wait_for_buffer`](crate::TraceLogger::wait_for_buffer).
///
/// **Why a buffer that closes while the consumer registers or re-checks is
/// never missed.** Every access to `parked` is a `swap`, so all of them sit
/// in one modification order and each reads the one before it. A closing
/// writer makes its last commit into the buffer and then swaps `false` in
/// (call that swap `W`): the loop returns that it closed a buffer — by an
/// event that ends on the boundary, or by the filler that pads one out — and
/// the writer notifies after writing its event, so `W` follows every commit
/// the writer makes into the closed buffer. The consumer registers its
/// thread and swaps `true` in (the *announce*, `A`), re-checks every region
/// for a closed buffer, parks only if there is none, and swaps `false` in
/// (the *withdraw*) before it sweeps again. For any close:
///
/// - `W` before `A`: only swaps ever write `parked`, so `A` reads from `W`'s
///   release sequence; the close happens-before the re-check, which sees the
///   index past the buffer's end and does not park.
/// - `W` after `A` and before the withdraw: the first writer swap after `A`
///   (`W` or an earlier one) reads `true`, so that writer unparks the target —
///   the thread registered before `A`, which `A` published to it. The park
///   returns (at once, if the unpark came first: the token stays set), and
///   the withdraw, after `W`, reads from its release sequence, so the sweep
///   that follows sees the close.
/// - `W` after the withdraw: the consumer is not parked, and its next
///   announce comes after `W` — the first case.
///
/// Writers only `try_read` the target, which fails only while a consumer
/// holds the write lock to register; one consumer waits at a time, and a
/// registering consumer is not parked and re-checks before it parks. Each
/// registration re-points the wake-ups, so a new session's drainer takes them
/// over from a previous session's.
#[derive(Debug, Default)]
pub(crate) struct DrainerWake {
    parked: WakeFlag,
    target: RwLock<Option<Thread>>,
}

impl DrainerWake {
    /// Producer half: called by the writer that closed a buffer, after its
    /// last commit into it. Never blocks: one swap, and an unpark only when
    /// the consumer announced.
    #[inline]
    pub(crate) fn notify(&self) {
        if self.parked.swap(false) {
            if let Ok(Some(target)) = self.target.try_read().as_deref() {
                target.unpark();
            }
        }
    }

    /// Consumer half, before the re-check: the calling thread becomes the
    /// wake target and announces that it is about to park.
    pub(crate) fn announce(&self) {
        *self.target.write().unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
        self.parked.swap(true);
    }

    /// Consumer half, after the re-check or the park. A swap, not a store: it
    /// must read from the last closing writer's swap (see above).
    pub(crate) fn withdraw(&self) {
        self.parked.swap(false);
    }
}

/// A drained, completed buffer handed to the consumer.
#[derive(Debug, Clone)]
pub struct CompletedBuffer {
    /// Which CPU's region the buffer came from.
    pub cpu: usize,
    /// Monotonic buffer sequence number within that region.
    pub seq: u64,
    /// The buffer's words, copied out.
    pub words: Vec<u64>,
    /// True if the commit count matched exactly — no garbling (§3.1).
    pub complete: bool,
    /// The words committed to this buffer's generation of its slot.
    pub committed_words: u64,
    /// The count a fully committed buffer shows: `buffer_words`.
    pub expected_words: u64,
    /// The data events committed to this buffer's generation, as the commit
    /// word counted them; a writer that tore the buffer does not hide the
    /// events committed after it.
    pub events: u64,
}

/// A point-in-time copy of a whole region, for flight-recorder dumps.
#[derive(Debug, Clone)]
pub struct RegionSnapshot {
    /// Which CPU's region this is.
    pub cpu: usize,
    /// The unwrapped word index at snapshot time.
    pub index: u64,
    /// Words per buffer.
    pub buffer_words: usize,
    /// Buffers per region.
    pub buffers_per_cpu: usize,
    /// All region words.
    pub words: Vec<u64>,
}

impl RegionSnapshot {
    /// The sequence number of the buffer being filled at snapshot time.
    pub fn current_seq(&self) -> u64 {
        self.index / self.buffer_words as u64
    }

    /// The oldest buffer sequence still (partially) present in the region.
    pub fn oldest_seq(&self) -> u64 {
        let cur = self.current_seq();
        cur.saturating_sub(self.buffers_per_cpu as u64 - 1)
    }

    /// The words of buffer `seq`, truncated to the written prefix for the
    /// buffer currently being filled. `None` if `seq` is outside the window.
    pub fn buffer(&self, seq: u64) -> Option<&[u64]> {
        if seq < self.oldest_seq() || seq > self.current_seq() {
            return None;
        }
        let slot = (seq % self.buffers_per_cpu as u64) as usize;
        let base = slot * self.buffer_words;
        let end = if seq == self.current_seq() {
            base + (self.index % self.buffer_words as u64) as usize
        } else {
            base + self.buffer_words
        };
        Some(&self.words[base..end])
    }
}

/// One CPU's buffer region and its control structure.
///
/// In K42 these live in processor-local memory mapped into every address
/// space; here the region is plain shared memory reached through an `Arc`,
/// which preserves the measured property (no syscall, no lock, one CAS on a
/// CPU-local cache line per event). Aligned to two cache lines (adjacent-
/// line prefetch) so neighbouring CPUs' reservation CASes never share one.
#[repr(align(128))]
pub struct CpuRegion {
    cpu: usize,
    config: TraceConfig,
    clock: Arc<dyn ClockSource>,
    /// The buffer memory; atomic so concurrent flight-recorder reads of
    /// live buffers are defined behaviour (possibly stale, never torn words).
    words: Box<[MessageWord]>,
    /// Unwrapped reservation index (Fig. 2's `trcCtlPtr->index`).
    index: ReservationTail,
    /// Buffers released by the consumer (stream mode).
    consumed: AcquireRelease,
    /// Events dropped because the consumer fell behind, *pending* an
    /// in-stream DROPPED marker (cumulative drops live in the telemetry
    /// block).
    dropped: ExactCounter,
    /// The shared self-observability registry this region tallies into; it
    /// owns the region's commit words.
    tel: Arc<Telemetry>,
    /// This region's slot in `tel` (the logger maps it to the CPU index; a
    /// standalone region owns a single-slot registry).
    tslot: usize,
    /// Serializes consumers; producers never touch this lock.
    take_lock: Mutex<()>,
    /// Who to wake when this region closes a buffer (shared by the logger's
    /// regions).
    wake: Arc<DrainerWake>,
}

impl CpuRegion {
    /// Creates an empty region for `cpu`, with its own private telemetry
    /// registry and wake-up handshake. A logger's regions share both.
    pub fn new(config: TraceConfig, clock: Arc<dyn ClockSource>, cpu: usize) -> CpuRegion {
        let tel = Arc::new(Telemetry::with_slots(1, config.buffers_per_cpu));
        CpuRegion::in_logger(config, clock, cpu, tel, 0, Arc::default())
    }

    /// Creates an empty region for `cpu` tallying into slot `tslot` of the
    /// shared telemetry registry `tel` (which holds `buffers_per_cpu` commit
    /// words per slot) and waking `wake`'s consumer.
    pub(crate) fn in_logger(
        config: TraceConfig,
        clock: Arc<dyn ClockSource>,
        cpu: usize,
        tel: Arc<Telemetry>,
        tslot: usize,
        wake: Arc<DrainerWake>,
    ) -> CpuRegion {
        let total = config.region_words();
        debug_assert_eq!(tel.commits(tslot).len(), config.buffers_per_cpu);
        CpuRegion {
            cpu,
            config,
            clock,
            words: (0..total).map(|_| MessageWord::new(0)).collect(),
            index: ReservationTail::new(0),
            consumed: AcquireRelease::new(0),
            dropped: ExactCounter::new(0),
            tel,
            tslot,
            take_lock: Mutex::new(()),
            wake,
        }
    }

    /// This region's counter block in the shared telemetry registry.
    #[inline]
    fn tally(&self) -> &CpuCounters {
        self.tel.cpu(self.tslot)
    }

    /// This region's buffer-slot commit words in the shared registry.
    #[inline]
    fn committed(&self) -> &[CommitWord] {
        self.tel.commits(self.tslot)
    }

    /// The reservation loop's view of this region.
    #[inline(always)]
    fn ring(&self) -> Ring<'_, CpuCounters> {
        Ring {
            cpu: self.cpu,
            buffer_words: self.config.buffer_words,
            buffers_per_cpu: self.config.buffers_per_cpu,
            mode: self.config.mode,
            words: &self.words,
            index: &self.index,
            committed: self.committed(),
            consumed: &self.consumed,
            dropped: &self.dropped,
            clock: &*self.clock,
            tally: self.tally(),
        }
    }

    /// The region's configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Logs one event. This is `traceLog` from Fig. 2: reserve, write data,
    /// write header, commit.
    pub fn log_raw(
        &self,
        major: MajorId,
        minor: MinorId,
        payload: &[u64],
    ) -> Result<(), CoreError> {
        self.append(major, minor, payload)
    }

    /// Logs a `CONTROL` event (heartbeats): same lockless path as
    /// [`log_raw`](CpuRegion::log_raw), but its commit counts no event, so
    /// `events_logged` keeps matching the data events a drained file holds.
    pub fn log_control(&self, minor: MinorId, payload: &[u64]) -> Result<(), CoreError> {
        self.append(MajorId::CONTROL, minor, payload)
    }

    /// Bounds the length, then runs the lockless loop — and wakes the
    /// drainer if the event or its filler closed a buffer, after the event's
    /// commit. Always inlined: as its own call it cost the log path a frame
    /// (≈ 1.5 ns an event, measured in-process).
    #[inline(always)]
    fn append(&self, major: MajorId, minor: MinorId, payload: &[u64]) -> Result<(), CoreError> {
        if payload.len() + 1 > self.config.max_event_words() {
            return Err(CoreError::EventTooLarge {
                payload_words: payload.len(),
                max: self.config.max_payload_words(),
            });
        }
        let closes = self
            .ring()
            .append(major, minor, payload)
            .ok_or(CoreError::Overrun)?;
        if closes {
            self.wake.notify();
        }
        Ok(())
    }

    /// Reserves `total_words` for a writer that will not commit (fault
    /// injection): the start index and the timestamp read under the CAS.
    fn reserve(&self, total_words: usize) -> Option<(u64, u64)> {
        let extent = self.ring().reserve_extent(total_words)?;
        if extent.closes {
            self.wake.notify();
        }
        Some((extent.start, extent.ts))
    }

    /// Force-closes the current partially filled buffer with filler so the
    /// consumer can drain it, sealing pending drops into a DROPPED marker
    /// when a slot is free ([`Ring::flush`]), and wakes the drainer. Returns
    /// false if no buffer closed.
    pub fn flush(&self) -> bool {
        let closed = self.ring().flush();
        if closed {
            self.wake.notify();
        }
        closed
    }

    /// True if a closed buffer waits for the consumer (stream mode): the
    /// index has passed the end of the oldest unconsumed buffer.
    pub(crate) fn has_closed_buffer(&self) -> bool {
        let bw = self.config.buffer_words as u64;
        self.config.mode == Mode::Stream
            && self.index.load_acquire() >= (self.consumed.load() + 1) * bw
    }

    /// Takes the oldest completed buffer, if the producer has moved past it
    /// (stream mode only). Incomplete (garbled) buffers are still taken, with
    /// `complete == false`, as §3.1 prescribes reporting the anomaly rather
    /// than blocking.
    pub fn take_buffer(&self) -> Option<CompletedBuffer> {
        if self.config.mode != Mode::Stream {
            return None;
        }
        let _guard = self
            .take_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let bw = self.config.buffer_words as u64;
        // A consumer taking over (e.g. after the take lock changes hands)
        // must see the predecessor's zeroing, not just its count: the
        // consumed count is an acquire/release pair.
        let seq = self.consumed.load();
        let idx = self.index.load_acquire();
        if idx < (seq + 1) * bw {
            return None;
        }
        let slot = (seq % self.config.buffers_per_cpu as u64) as usize;
        let commit = &self.committed()[slot];
        // A writer commits shortly *after* the CAS that pushed the index past
        // this buffer (its filler/header writes follow the reservation), so a
        // just-closed buffer can look transiently incomplete. Give stragglers
        // a bounded grace period before declaring garble — a logger that was
        // killed (the §3.1 scenario) never commits and is still caught. The
        // bound is elapsed time, not a yield count: on an oversubscribed host
        // a thousand yields can pass while the writer is still descheduled.
        let mut seen = commit.load();
        if CommitWord::words(seen) < bw {
            self.tel.sink().tally_grace_wait();
            let deadline = Instant::now() + STRAGGLER_GRACE;
            while CommitWord::words(seen) < bw && Instant::now() < deadline {
                std::thread::yield_now();
                seen = commit.load();
            }
        }
        let base = slot * bw as usize;
        let words: Vec<u64> = self.words[base..base + bw as usize]
            .iter()
            .map(MessageWord::load)
            .collect();
        // Zero the slot so the next generation starts clean: an unwritten
        // header then reads as zero, which decoders treat as garble.
        for w in &self.words[base..base + bw as usize] {
            w.store(0);
        }
        // Retire the generation before the release below hands the slot to
        // producers: out of the slot first, then into the retired count, so
        // a snapshot (retired count first, slots second) never counts these
        // events twice. A straggler that commits after the read stays in
        // the slot and shows on the next generation.
        commit.retire(seen);
        let events = CommitWord::events(seen);
        self.tally().tally_retired(events);
        self.consumed.store(seq + 1);
        let committed = CommitWord::words(seen);
        Some(CompletedBuffer {
            cpu: self.cpu,
            seq,
            words,
            complete: committed == bw,
            committed_words: committed,
            expected_words: bw,
            events,
        })
    }

    /// Fault injection: reserves `total_words` exactly like a logger would
    /// and then never writes or commits them — the killed-mid-log scenario of
    /// §3.1 ("a process … killed at an inopportune moment leaves a buffer
    /// whose commit count never catches up"). The claimed extent stays zeroed
    /// so decoders see a [`GarbleNote::ZeroHeader`](crate::reader::GarbleNote)
    /// and the buffer drains with `complete == false`. Returns the abandoned
    /// start index, or `None` in stream mode when the region is overrun.
    pub fn abandon_reservation(&self, total_words: usize) -> Option<u64> {
        if total_words == 0 || total_words > self.config.max_event_words() {
            return None;
        }
        self.reserve(total_words).map(|(start, _ts)| start)
    }

    /// Fault injection: XORs `mask` into the region word at unwrapped index
    /// `at` — a torn header or flipped payload word, as left by errant DMA or
    /// a stray store. Atomic, so concurrent readers still see untorn words.
    pub fn corrupt_word(&self, at: u64, mask: u64) {
        let pos = (at % self.words.len() as u64) as usize;
        self.words[pos].fault_xor(mask);
    }

    /// Fault injection: skews the word half of buffer slot `slot`'s commit
    /// word by `delta` (wrapping within the half). A positive skew simulates
    /// a logger that woke after its buffer was recycled ("too much data"); a
    /// negative one, a commit that never landed ("not enough data") — the
    /// two §3.1 anomalies.
    pub fn desync_commit(&self, slot: usize, delta: i64) {
        self.committed()[slot % self.config.buffers_per_cpu].fault_skew(delta);
    }

    /// Copies the whole region for flight-recorder inspection (§4.2). Safe to
    /// call while producers are running; the tail may be garbled.
    pub fn snapshot(&self) -> RegionSnapshot {
        RegionSnapshot {
            cpu: self.cpu,
            index: self.index.load_acquire(),
            buffer_words: self.config.buffer_words,
            buffers_per_cpu: self.config.buffers_per_cpu,
            words: self.words.iter().map(MessageWord::load).collect(),
        }
    }

    /// Number of data events successfully logged: retired plus live in the
    /// commit words.
    pub fn events_logged(&self) -> u64 {
        self.tel.events_logged(self.tslot)
    }

    /// The telemetry registry this region reports into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.tel
    }

    /// The current unwrapped word index.
    pub fn index(&self) -> u64 {
        self.index.load()
    }

    /// Buffers released by the consumer so far. An observer that sees `n`
    /// buffers consumed also sees those slots zeroed.
    pub fn buffers_consumed(&self) -> u64 {
        self.consumed.load()
    }
}

impl std::fmt::Debug for CpuRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuRegion")
            .field("cpu", &self.cpu)
            .field("index", &self.index())
            .field("events", &self.events_logged())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ANCHOR_WORDS;
    use ktrace_clock::ManualClock;
    use ktrace_format::ids::control;
    use ktrace_format::protocol::SignalFlag;
    use ktrace_format::EventHeader;

    fn region(cfg: TraceConfig) -> (Arc<ManualClock>, CpuRegion) {
        let clock = Arc::new(ManualClock::new(1000, 1));
        (clock.clone(), CpuRegion::new(cfg, clock, 0))
    }

    #[test]
    fn first_event_opens_buffer_with_anchor() {
        let (_c, r) = region(TraceConfig::small());
        r.log_raw(MajorId::TEST, 1, &[42]).unwrap();
        // Index: anchor (3) + event (2).
        assert_eq!(r.index(), 5);
        let snap = r.snapshot();
        let buf = snap.buffer(0).unwrap();
        let anchor = EventHeader::decode(buf[0]).unwrap();
        assert!(anchor.is_time_anchor());
        assert_eq!(buf[2], 0); // cpu id payload
        let ev = EventHeader::decode(buf[3]).unwrap();
        assert_eq!(ev.major, MajorId::TEST);
        assert_eq!(buf[4], 42);
    }

    #[test]
    fn events_fill_and_cross_boundary_with_filler() {
        let cfg = TraceConfig::small(); // 128-word buffers
        let (_c, r) = region(cfg);
        // Fill buffer 0 close to the end: anchor(3) + k events of 5 words.
        let per = 5usize;
        let fit = (cfg.buffer_words - ANCHOR_WORDS) / per; // events fitting buffer 0
        for i in 0..fit + 1 {
            r.log_raw(MajorId::TEST, i as u16, &[1, 2, 3, 4]).unwrap();
        }
        // The +1'th event went to buffer 1.
        assert_eq!(r.index() / cfg.buffer_words as u64, 1);
        let snap = r.snapshot();
        let b0 = snap.buffer(0).unwrap();
        // Walk buffer 0: anchor, then `fit` events, then filler to the end.
        let mut off = 0;
        let mut seen_filler = false;
        while off < b0.len() {
            let h = EventHeader::decode(b0[off]).unwrap();
            if h.is_filler() {
                seen_filler = true;
            }
            off += h.len_words as usize;
        }
        assert_eq!(
            off, cfg.buffer_words,
            "events chain exactly to the boundary"
        );
        let leftover = cfg.buffer_words - ANCHOR_WORDS - fit * per;
        assert_eq!(seen_filler, leftover > 0);
        // Buffer 1 starts with an anchor.
        let b1 = snap.buffer(1).unwrap();
        assert!(EventHeader::decode(b1[0]).unwrap().is_time_anchor());
    }

    #[test]
    fn exact_fill_needs_no_filler() {
        let cfg = TraceConfig::small();
        let (_c, r) = region(cfg);
        // Two events exactly filling buffer 0 after the anchor
        // (anchor 3 + 63 + 62 = 128 words).
        let rest = cfg.buffer_words - ANCHOR_WORDS; // 125
        let first = rest / 2 + 1; // 63
        r.log_raw(MajorId::TEST, 0, &vec![7u64; first - 1]).unwrap();
        r.log_raw(MajorId::TEST, 0, &vec![8u64; rest - first - 1])
            .unwrap();
        assert_eq!(r.index() % cfg.buffer_words as u64, 0);
        // Next event opens buffer 1 via the pos==0 slow path.
        r.log_raw(MajorId::TEST, 1, &[]).unwrap();
        let snap = r.snapshot();
        let b0 = snap.buffer(0).unwrap();
        let mut off = 0;
        let mut fillers = 0;
        while off < b0.len() {
            let h = EventHeader::decode(b0[off]).unwrap();
            fillers += h.is_filler() as usize;
            off += h.len_words as usize;
        }
        assert_eq!(fillers, 0);
        assert!(EventHeader::decode(snap.buffer(1).unwrap()[0])
            .unwrap()
            .is_time_anchor());
    }

    #[test]
    fn oversized_event_rejected() {
        let cfg = TraceConfig::small();
        let (_c, r) = region(cfg);
        let too_big = vec![0u64; cfg.max_payload_words() + 1];
        assert!(matches!(
            r.log_raw(MajorId::TEST, 0, &too_big),
            Err(CoreError::EventTooLarge { .. })
        ));
        let just_fits = vec![0u64; cfg.max_payload_words()];
        r.log_raw(MajorId::TEST, 0, &just_fits).unwrap();
    }

    #[test]
    fn stream_overrun_drops_and_marks() {
        let cfg = TraceConfig::small(); // 4 buffers
        let (_c, r) = region(cfg);
        // Fill all 4 buffers without consuming.
        let payload = [0u64; 15];
        let mut dropped_seen = false;
        for _ in 0..1000 {
            if r.log_raw(MajorId::TEST, 0, &payload).is_err() {
                dropped_seen = true;
                break;
            }
        }
        assert!(dropped_seen, "region should fill up and drop");
        assert!(r.dropped.load() > 0);
        let idx_stuck = r.index();
        assert!(r.log_raw(MajorId::TEST, 0, &payload).is_err());
        assert_eq!(r.index(), idx_stuck, "no progress while overrun");

        // Drain one buffer; logging resumes and a DROPPED marker appears.
        let buf = r.take_buffer().unwrap();
        assert!(buf.complete);
        r.log_raw(MajorId::TEST, 9, &payload).unwrap();
        assert_eq!(r.dropped.load(), 0);
        let snap = r.snapshot();
        let newest = snap.buffer(snap.current_seq()).unwrap();
        let anchor = EventHeader::decode(newest[0]).unwrap();
        assert!(anchor.is_time_anchor());
        let marker = EventHeader::decode(newest[ANCHOR_WORDS]).unwrap();
        assert_eq!(marker.major, MajorId::CONTROL);
        assert_eq!(marker.minor, control::DROPPED);
        assert!(newest[ANCHOR_WORDS + 1] > 0, "dropped count recorded");
    }

    #[test]
    fn take_buffer_order_and_zeroing() {
        let cfg = TraceConfig::small();
        let (_c, r) = region(cfg);
        let payload = [1u64; 10];
        while r.index() < 2 * cfg.buffer_words as u64 {
            r.log_raw(MajorId::TEST, 0, &payload).unwrap();
        }
        let b0 = r.take_buffer().unwrap();
        assert_eq!(b0.seq, 0);
        assert!(b0.complete);
        let b1 = r.take_buffer().unwrap();
        assert_eq!(b1.seq, 1);
        // Buffer 2 is still being filled.
        assert!(r.take_buffer().is_none());
        assert_eq!(r.buffers_consumed(), 2);
    }

    #[test]
    fn flush_closes_partial_buffer() {
        let cfg = TraceConfig::small();
        let (_c, r) = region(cfg);
        r.log_raw(MajorId::TEST, 0, &[1, 2]).unwrap();
        assert!(r.take_buffer().is_none(), "partial buffer not takeable");
        assert!(r.flush());
        assert!(!r.flush(), "second flush is a no-op");
        let buf = r.take_buffer().unwrap();
        assert!(buf.complete, "filler commit completes the buffer");
        // Contents: anchor, event, filler(s).
        let h0 = EventHeader::decode(buf.words[0]).unwrap();
        assert!(h0.is_time_anchor());
        let h1 = EventHeader::decode(buf.words[ANCHOR_WORDS]).unwrap();
        assert_eq!(h1.major, MajorId::TEST);
        let h2 = EventHeader::decode(buf.words[ANCHOR_WORDS + 3]).unwrap();
        assert!(h2.is_filler());
    }

    #[test]
    fn take_buffer_waits_out_a_descheduled_writer() {
        // A writer reserves, then loses the CPU for longer than any number
        // of consumer yields takes on an idle host, then commits. The
        // buffer it wrote into has been closed meanwhile; taking it must
        // wait for the commit instead of reporting garble.
        let cfg = TraceConfig::small();
        let (_c, r) = region(cfg);
        let r = Arc::new(r);
        r.log_raw(MajorId::TEST, 0, &[1]).unwrap();
        let (reserved_tx, reserved_rx) = std::sync::mpsc::channel();
        let writer = {
            let r = r.clone();
            std::thread::spawn(move || {
                let (at, ts) = r.reserve(3).expect("room in the first buffer");
                reserved_tx.send(()).unwrap();
                std::thread::sleep(STRAGGLER_GRACE / 5);
                let header = EventHeader::new(ts as u32, 2, MajorId::TEST, 1).unwrap();
                r.ring().write_event(at, header, &[7, 8]);
            })
        };
        reserved_rx.recv().unwrap();
        assert!(r.flush(), "closes the buffer under the writer");
        assert_eq!(r.telemetry().sink().grace_waits(), 0);
        let buf = r.take_buffer().expect("closed buffer is takeable");
        writer.join().unwrap();
        assert_eq!(r.telemetry().sink().grace_waits(), 1, "the wait is counted");
        assert!(
            buf.complete,
            "committed {} of {} words",
            buf.committed_words, buf.expected_words
        );
        assert!(crate::reader::parse_buffer(0, 0, &buf.words, None).clean());
    }

    #[test]
    fn flight_recorder_wraps_without_dropping() {
        let cfg = TraceConfig::small().flight_recorder();
        let (_c, r) = region(cfg);
        let payload = [3u64; 10];
        // Log far more than the region holds.
        for i in 0..5000u64 {
            r.log_raw(MajorId::TEST, (i % 100) as u16, &payload)
                .unwrap();
        }
        assert_eq!(r.dropped.load(), 0);
        assert_eq!(r.events_logged(), 5000, "an overwrite is not a drop");
        assert!(r.tally().flight_overwrites() > 0);
        assert!(
            r.index() > cfg.region_words() as u64,
            "wrapped at least once"
        );
        assert!(
            r.take_buffer().is_none(),
            "no consumer in flight-recorder mode"
        );
        let snap = r.snapshot();
        // Oldest visible buffer is within one region of the index.
        assert_eq!(
            snap.oldest_seq(),
            snap.current_seq() - (cfg.buffers_per_cpu as u64 - 1)
        );
        assert!(snap.buffer(snap.oldest_seq() - 1).is_none());
    }

    #[test]
    fn timestamps_nondecreasing_in_buffer_order() {
        let (_c, r) = region(TraceConfig::small().flight_recorder());
        for _ in 0..500 {
            r.log_raw(MajorId::TEST, 0, &[0]).unwrap();
        }
        let snap = r.snapshot();
        for seq in snap.oldest_seq()..=snap.current_seq() {
            let buf = snap.buffer(seq).unwrap();
            let mut off = 0;
            let mut last = 0u32;
            while off < buf.len() {
                let h = EventHeader::decode(buf[off]).unwrap();
                assert!(h.timestamp >= last, "ts regression at seq {seq} off {off}");
                last = h.timestamp;
                off += h.len_words as usize;
            }
        }
    }

    #[test]
    fn abandoned_reservation_garbles_buffer_with_zero_header() {
        let cfg = TraceConfig::small();
        let (_c, r) = region(cfg);
        r.log_raw(MajorId::TEST, 0, &[1]).unwrap();
        let at = r.abandon_reservation(4).expect("reservation succeeds");
        // A later event lands beyond the hole; decoding can't reach it.
        r.log_raw(MajorId::TEST, 1, &[2]).unwrap();
        r.flush();
        let buf = r.take_buffer().unwrap();
        assert!(!buf.complete, "abandoned words never commit");
        assert_eq!(buf.expected_words - buf.committed_words, 4);
        let parsed = crate::reader::parse_buffer(0, 0, &buf.words, None);
        assert!(parsed
            .notes
            .iter()
            .any(|n| matches!(n, crate::reader::GarbleNote::ZeroHeader { offset } if *offset as u64 == at)));
        // Events before the tear survive.
        assert!(parsed
            .events
            .iter()
            .any(|e| e.major == MajorId::TEST && e.minor == 0));
        assert!(
            !parsed
                .events
                .iter()
                .any(|e| e.major == MajorId::TEST && e.minor == 1),
            "the event beyond the tear is unreachable"
        );
    }

    #[test]
    fn a_killed_writer_flags_only_its_own_buffer() {
        // One writer dies mid-reservation in the first buffer; the slot's
        // later generations are committed in full and must drain complete,
        // without a straggler wait each.
        let cfg = TraceConfig::small();
        let (_c, r) = region(cfg);
        for i in 0..10u64 {
            r.log_raw(MajorId::TEST, 0, &[i]).unwrap();
        }
        r.abandon_reservation(4).expect("room in the first buffer");
        let mut buffers = Vec::new();
        for i in 0..4_000u64 {
            r.log_raw(MajorId::TEST, 0, &[i]).unwrap();
            buffers.extend(std::iter::from_fn(|| r.take_buffer()));
        }
        assert!(
            buffers.len() > 2 * cfg.buffers_per_cpu,
            "the slots recycled"
        );
        let torn: Vec<u64> = buffers
            .iter()
            .filter(|b| !b.complete)
            .map(|b| b.seq)
            .collect();
        assert_eq!(torn, [0], "only the torn buffer is flagged");
        assert_eq!(r.telemetry().sink().grace_waits(), 1);
    }

    #[test]
    fn desync_commit_flags_buffer_incomplete() {
        let cfg = TraceConfig::small();
        let (_c, r) = region(cfg);
        let payload = [1u64; 10];
        while r.index() < cfg.buffer_words as u64 {
            r.log_raw(MajorId::TEST, 0, &payload).unwrap();
        }
        r.desync_commit(0, -3);
        let short = r.take_buffer().unwrap();
        assert!(!short.complete, "short count must flag garble");
        assert_eq!(short.expected_words - short.committed_words, 3);

        while r.index() < 2 * cfg.buffer_words as u64 {
            r.log_raw(MajorId::TEST, 0, &payload).unwrap();
        }
        r.desync_commit(1, 5);
        let over = r.take_buffer().unwrap();
        assert!(!over.complete, "overshoot must flag garble too");
        assert_eq!(over.committed_words - over.expected_words, 5);
    }

    #[test]
    fn corrupt_word_tears_exactly_one_word() {
        let cfg = TraceConfig::small();
        let (_c, r) = region(cfg);
        r.log_raw(MajorId::TEST, 0, &[7, 8]).unwrap();
        let before = r.snapshot();
        r.corrupt_word(ANCHOR_WORDS as u64, 0xdead_beef);
        let after = r.snapshot();
        for (i, (b, a)) in before.words.iter().zip(after.words.iter()).enumerate() {
            if i == ANCHOR_WORDS {
                assert_eq!(*a, *b ^ 0xdead_beef);
            } else {
                assert_eq!(a, b, "word {i} must be untouched");
            }
        }
    }

    #[test]
    fn concurrent_producers_never_corrupt_the_chain() {
        // The core lockless property: many threads, one region, every
        // completed buffer chains perfectly and commit counts match.
        let cfg = TraceConfig {
            buffer_words: 512,
            buffers_per_cpu: 4,
            mode: Mode::Stream,
        };
        let clock = Arc::new(ktrace_clock::SyncClock::new());
        let r = Arc::new(CpuRegion::new(cfg, clock, 0));
        let nthreads = 8;
        let per_thread = 3000u64;
        let stop = Arc::new(SignalFlag::new());

        // Consumer thread drains and validates.
        let rc = r.clone();
        let stop_c = stop.clone();
        let consumer = std::thread::spawn(move || {
            let mut taken = Vec::new();
            loop {
                match rc.take_buffer() {
                    Some(b) => taken.push(b),
                    None if stop_c.is_raised() => {
                        rc.flush();
                        while let Some(b) = rc.take_buffer() {
                            taken.push(b);
                        }
                        break;
                    }
                    None => std::thread::yield_now(),
                }
            }
            taken
        });

        let producers: Vec<_> = (0..nthreads)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    let mut logged = 0u64;
                    for i in 0..per_thread {
                        let payload = [t as u64, i, i ^ t as u64];
                        if r.log_raw(MajorId::TEST, t as u16, &payload[..(i % 4) as usize])
                            .is_ok()
                        {
                            logged += 1;
                        }
                    }
                    logged
                })
            })
            .collect();

        let logged: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
        stop.raise();
        let buffers = consumer.join().unwrap();

        let mut events = 0u64;
        let mut marked_dropped = 0u64;
        for b in &buffers {
            assert!(
                b.complete,
                "buffer seq {} garbled: {}/{}",
                b.seq, b.committed_words, b.expected_words
            );
            let mut off = 0;
            while off < b.words.len() {
                let h = EventHeader::decode(b.words[off])
                    .unwrap_or_else(|e| panic!("zero header at seq {} off {off}: {e}", b.seq));
                assert!(
                    off + h.len_words as usize <= b.words.len(),
                    "event overruns buffer"
                );
                if h.major == MajorId::CONTROL && h.minor == control::DROPPED {
                    marked_dropped += b.words[off + 1];
                }
                if h.major == MajorId::TEST {
                    events += 1;
                    // Payload integrity: first two words are (thread, i).
                    if h.payload_words() >= 2 {
                        let t = b.words[off + 1];
                        let i = b.words[off + 2];
                        assert_eq!(h.minor as u64, t);
                        assert!(
                            h.payload_words() != 3 || b.words[off + 3] == (i ^ t),
                            "third payload word must be thread ^ index"
                        );
                    }
                }
                off += h.len_words as usize;
            }
            assert_eq!(off, b.words.len(), "chain must end exactly at boundary");
        }
        // Logged events plus drops account for every attempt, read from the
        // buffers alone: the consumer's final flush found a free slot and
        // sealed the last drops into a DROPPED marker.
        assert_eq!(events, logged, "every logged event appears exactly once");
        assert_eq!(
            r.events_logged(),
            logged,
            "the commit words counted each one"
        );
        assert_eq!(
            logged + marked_dropped,
            nthreads as u64 * per_thread,
            "attempted = logged + dropped"
        );
    }
}
