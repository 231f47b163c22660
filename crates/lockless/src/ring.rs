//! The reservation loop of Fig. 2 over one CPU's borrowed region.
//!
//! [`Ring`] borrows what the loop touches — the region's buffer words, its
//! reservation index, its per-buffer commit words, the consumed and dropped
//! counts — plus the clock and the counter block, and runs
//! reserve → write payload → publish header → commit over them. The commit
//! is one add that counts the event's words and, for a data event, the event
//! itself (see [`CommitWord`]), so the loop pays the two atomics of Fig. 2
//! and keeps no per-event tally of its own. The region
//! that owns that memory, the length check, and the drainer wake-up stay on
//! the std side (`ktrace_core::region::CpuRegion`): the loop *returns*
//! whether it closed a buffer and the caller wakes the drainer after the
//! event is written.

use crate::header::{filler_chain, EventHeader, MAX_EVENT_WORDS};
use crate::ids::{control, MajorId, MinorId};
use crate::protocol::{AcquireRelease, CommitWord, ExactCounter, MessageWord, ReservationTail};
use crate::ClockSource;

/// Words claimed for the time-anchor event at the start of every buffer:
/// header + full 64-bit timestamp + CPU id.
pub const ANCHOR_WORDS: usize = 3;

/// Words claimed for a dropped-buffer marker event: header + count.
pub const DROPPED_WORDS: usize = 2;

/// What happens when the producer laps the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A consumer drains completed buffers ("written out to disk or streamed
    /// over the network"). If it falls behind, new events are *dropped* and a
    /// dropped-count marker is logged when space reappears.
    Stream,
    /// No consumer: the region is a circular flight recorder (paper §4.2);
    /// old buffers are silently overwritten and the logger's `dump_last`
    /// recovers the most recent activity after a crash.
    FlightRecorder,
}

/// The counts the loop reports as it runs. `ktrace_telemetry::CpuCounters`
/// implements it with relaxed tallies on the CPU's own cache line.
pub trait ReserveTally {
    /// One failed reservation CAS (the loop will retry).
    fn tally_cas_retry(&self);
    /// One data event dropped because the stream-mode consumer fell behind.
    /// A refused `CONTROL` event is not data and is not tallied.
    fn tally_dropped(&self);
    /// One buffer-boundary crossing (the reservation slow path won).
    fn tally_wrap(&self);
    /// One unconsumed buffer overwritten in flight-recorder mode.
    fn tally_overwrite(&self);
    /// `words` of filler written to realign a buffer boundary.
    fn tally_filler_words(&self, words: u64);
    /// How long a reservation waited, in clock ticks: the winning attempt's
    /// timestamp minus the first attempt's.
    fn observe_reserve_wait(&self, ticks: u64);
    /// `events` data events moved out of a retired buffer slot's commit
    /// word, after their removal from it.
    fn tally_retired(&self, events: u64);
}

/// A won reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Unwrapped index of the extent's first word.
    pub start: u64,
    /// The timestamp read under the winning CAS.
    pub ts: u64,
    /// True if a buffer closed: the extent ends exactly at a buffer boundary,
    /// or its filler closed the previous buffer. The caller wakes the
    /// drainer after it has committed the extent.
    pub closes: bool,
}

/// One CPU's region, borrowed for one log call.
pub struct Ring<'a, T: ReserveTally> {
    /// The CPU the region belongs to (anchor payload, clock argument).
    pub cpu: usize,
    /// Words per buffer (a power of two).
    pub buffer_words: usize,
    /// Buffers per region (a power of two).
    pub buffers_per_cpu: usize,
    /// Stream or flight-recorder operation.
    pub mode: Mode,
    /// The region's `buffer_words · buffers_per_cpu` words.
    pub words: &'a [MessageWord],
    /// Unwrapped reservation index (Fig. 2's `trcCtlPtr->index`).
    pub index: &'a ReservationTail,
    /// Per buffer slot, the words and data events committed to its current
    /// generation.
    pub committed: &'a [CommitWord],
    /// Buffers released by the consumer (stream mode).
    pub consumed: &'a AcquireRelease,
    /// Data events dropped to overrun, pending an in-stream DROPPED marker.
    pub dropped: &'a ExactCounter,
    /// The timestamp source, re-read on every attempt.
    pub clock: &'a dyn ClockSource,
    /// Where the loop's counts go.
    pub tally: &'a T,
}

impl<T: ReserveTally> Ring<'_, T> {
    /// Reserve, write data, write header, commit — `traceLog` of Fig. 2.
    /// `payload.len() + 1` must not exceed the geometry's largest event
    /// (the caller checks it). Returns whether a buffer closed, or `None` if
    /// the event was dropped (stream overrun), in which case a data event
    /// joins the count the next DROPPED marker carries.
    #[inline(always)]
    pub fn append(&self, major: MajorId, minor: MinorId, payload: &[u64]) -> Option<bool> {
        let total = payload.len() + 1;
        debug_assert!(total <= MAX_EVENT_WORDS);
        let Some(extent) = self.reserve_extent(total) else {
            // Only a data event is lost data: a refused `CONTROL` event
            // (heartbeat, audit record) is not counted, as its commit is not.
            if major != MajorId::CONTROL {
                self.dropped.add(1);
                self.tally.tally_dropped();
            }
            return None;
        };
        let header = EventHeader {
            timestamp: extent.ts as u32,
            len_words: total as u16,
            major,
            minor,
        };
        self.write_event(extent.start, header, payload);
        Some(extent.closes)
    }

    /// The reservation loop (`traceReserve` + `traceReserveSlow`, Fig. 2):
    /// the won extent, or `None` if the event must be dropped (stream
    /// overrun; the caller counts the drop). Always inlined, as is
    /// [`write_event`](Ring::write_event): an out-of-line call takes the
    /// borrowed view through memory, which cost the log path ≈ 2 ns an
    /// event (2-vCPU Xeon VM, measured in-process against a loop over the
    /// owning region); inlined, its fields stay in registers.
    #[inline(always)]
    pub fn reserve_extent(&self, total_words: usize) -> Option<Extent> {
        let bw = self.buffer_words as u64;
        let mut first_ts: Option<u64> = None;
        loop {
            let old = self.index.load();
            let pos = (old % bw) as usize;
            // Re-determine the timestamp on every attempt: "processes must
            // re-determine the timestamp during each attempt to atomically
            // increment the index" (§3.1).
            let ts = self.clock.now(self.cpu);
            // The wait tally reuses these per-attempt reads: winning ts minus
            // first-attempt ts, no extra clock query.
            let t0 = *first_ts.get_or_insert(ts);
            if pos != 0 && pos + total_words <= bw as usize {
                // Fast path: fits in the current buffer.
                if self.index.advance_weak(old, old + total_words as u64) {
                    self.tally.observe_reserve_wait(ts.saturating_sub(t0));
                    return Some(Extent {
                        start: old,
                        ts,
                        closes: pos + total_words == bw as usize,
                    });
                }
                self.tally.tally_cas_retry();
                continue;
            }

            // Slow path: `pos == 0` means a fresh buffer that still needs its
            // anchor (including the very first event); otherwise the event
            // would cross the alignment boundary.
            let next_seq = if pos == 0 { old / bw } else { old / bw + 1 };

            if self.mode == Mode::Stream {
                // `Acquire` pairs with the consumer's `Release` store after it
                // zeroes the slot, so writes into a recycled slot can't race
                // with the zeroing.
                let consumed = self.consumed.load();
                if next_seq >= consumed + self.buffers_per_cpu as u64 {
                    return None;
                }
            }

            let drop_pending = self.dropped.load() > 0;
            let extra = if drop_pending { DROPPED_WORDS } else { 0 };
            let claimed = ANCHOR_WORDS + extra + total_words;
            let new = next_seq * bw + claimed as u64;
            if !self.index.advance_weak(old, new) {
                self.tally.tally_cas_retry();
                continue;
            }
            self.tally.tally_wrap();
            if self.mode == Mode::FlightRecorder && next_seq >= self.buffers_per_cpu as u64 {
                // Wrapping past capacity overwrites the oldest unread buffer:
                // retire its slot before the anchor commits into it. A commit
                // of the new generation that lands first is retired early,
                // one of the old generation that lands later is retired with
                // the next wrap; either way it is counted once.
                self.tally.tally_overwrite();
                let slot = (next_seq % self.buffers_per_cpu as u64) as usize;
                let taken = self.committed[slot].take();
                self.tally.tally_retired(CommitWord::events(taken));
            }

            // Won the buffer switch: fill the remainder with filler event(s)…
            if pos != 0 {
                self.write_fillers(old, bw as usize - pos, ts as u32);
            }
            // …anchor the new buffer with the full 64-bit time…
            let base = next_seq * bw;
            let anchor = EventHeader::control(ts as u32, control::TIME_ANCHOR, ANCHOR_WORDS);
            self.write_event(base, anchor, &[ts, self.cpu as u64]);
            // …and record how many events were dropped while overrun.
            if drop_pending {
                let count = self.dropped.take();
                let marker = EventHeader::control(ts as u32, control::DROPPED, DROPPED_WORDS);
                self.write_event(base + ANCHOR_WORDS as u64, marker, &[count]);
            }
            self.tally.observe_reserve_wait(ts.saturating_sub(t0));
            return Some(Extent {
                start: base + (ANCHOR_WORDS + extra) as u64,
                ts,
                closes: pos != 0 || claimed as u64 == bw,
            });
        }
    }

    /// Force-closes the current partial buffer with filler so the consumer
    /// can drain it (end-of-run flush). In stream mode it then seals drops
    /// still pending: from the boundary a zero-word reservation takes the
    /// slow path, which writes anchor + DROPPED into the next buffer, and a
    /// second close fills it. With no free slot the count stays pending for
    /// the next buffer switch. Returns whether a buffer closed.
    pub fn flush(&self) -> bool {
        let closed = self.close();
        let pending = self.mode == Mode::Stream && self.dropped.load() > 0;
        if pending && self.reserve_extent(0).is_some() {
            return self.close() || closed;
        }
        closed
    }

    /// Closes the current buffer with filler; false if it is untouched.
    fn close(&self) -> bool {
        let bw = self.buffer_words as u64;
        loop {
            let old = self.index.load();
            let pos = (old % bw) as usize;
            if pos == 0 {
                return false;
            }
            let ts = self.clock.now(self.cpu);
            if self.index.advance(old, (old / bw + 1) * bw) {
                self.write_fillers(old, bw as usize - pos, ts as u32);
                return true;
            }
        }
    }

    /// Writes a chain of filler headers covering the last `remainder` words
    /// of the buffer at `at` and commits them, which closes that buffer.
    pub fn write_fillers(&self, at: u64, remainder: usize, ts32: u32) {
        let mut off = at;
        for seg in filler_chain(remainder) {
            let h = EventHeader::control(ts32, control::FILLER, seg);
            let pos = (off % self.words.len() as u64) as usize;
            self.words[pos].publish(h.encode());
            off += seg as u64;
        }
        self.tally.tally_filler_words(remainder as u64);
        self.commit(at, remainder, 0);
    }

    /// Writes payload then header (release) then commits, counting the
    /// event unless it is a `CONTROL` event (anchor, marker, heartbeat) —
    /// the reader's definition of a data event.
    #[inline(always)]
    pub fn write_event(&self, at: u64, header: EventHeader, payload: &[u64]) {
        let region = self.words.len() as u64;
        let pos = (at % region) as usize;
        for (i, &w) in payload.iter().enumerate() {
            self.words[pos + 1 + i].store(w);
        }
        self.words[pos].publish(header.encode());
        let events = u64::from(header.major != MajorId::CONTROL);
        self.commit(at, header.len_words as usize, events);
    }

    /// `traceCommit`: adds `len` words and `events` data events to the
    /// commit word of the buffer containing index `at`.
    fn commit(&self, at: u64, len: usize, events: u64) {
        let slot = ((at / self.buffer_words as u64) % self.buffers_per_cpu as u64) as usize;
        self.committed[slot].commit(len as u64, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::cell::Cell;
    use std::vec::Vec;

    /// Counts what the loop reports; single-threaded, so plain cells.
    #[derive(Default)]
    struct Tally {
        dropped: Cell<u64>,
        overwrites: Cell<u64>,
        retired: Cell<u64>,
    }

    impl ReserveTally for Tally {
        fn tally_cas_retry(&self) {}
        fn tally_dropped(&self) {
            self.dropped.set(self.dropped.get() + 1);
        }
        fn tally_wrap(&self) {}
        fn tally_overwrite(&self) {
            self.overwrites.set(self.overwrites.get() + 1);
        }
        fn tally_filler_words(&self, _words: u64) {}
        fn observe_reserve_wait(&self, _ticks: u64) {}
        fn tally_retired(&self, events: u64) {
            self.retired.set(self.retired.get() + events);
        }
    }

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

    /// A region's memory: `BUFFERS` buffers of `BUFFER_WORDS` words.
    struct Memory {
        words: Vec<MessageWord>,
        index: ReservationTail,
        committed: Vec<CommitWord>,
        consumed: AcquireRelease,
        dropped: ExactCounter,
    }

    const BUFFER_WORDS: usize = 32;
    const BUFFERS: usize = 2;

    impl Memory {
        fn new() -> Memory {
            Memory {
                words: (0..BUFFER_WORDS * BUFFERS)
                    .map(|_| MessageWord::new(0))
                    .collect(),
                index: ReservationTail::new(0),
                committed: (0..BUFFERS).map(|_| CommitWord::new(0)).collect(),
                consumed: AcquireRelease::new(0),
                dropped: ExactCounter::new(0),
            }
        }

        fn ring<'a>(&'a self, mode: Mode, tally: &'a Tally) -> Ring<'a, Tally> {
            Ring {
                cpu: 0,
                buffer_words: BUFFER_WORDS,
                buffers_per_cpu: BUFFERS,
                mode,
                words: &self.words,
                index: &self.index,
                committed: &self.committed,
                consumed: &self.consumed,
                dropped: &self.dropped,
                clock: &Zero,
                tally,
            }
        }

        fn live(&self) -> (u64, u64) {
            let values = self.committed.iter().map(CommitWord::load);
            values.fold((0, 0), |(w, e), v| {
                (w + CommitWord::words(v), e + CommitWord::events(v))
            })
        }
    }

    #[test]
    fn the_commit_counts_data_events_only() {
        let (m, tally) = (Memory::new(), Tally::default());
        let ring = m.ring(Mode::Stream, &tally);
        for i in 0..5 {
            assert!(ring.append(MajorId::TEST, 0, &[i, i]).is_some());
        }
        assert!(ring
            .append(MajorId::CONTROL, control::HEARTBEAT, &[1])
            .is_some());
        // Anchor 3 + five 3-word events + the 2-word control event.
        assert_eq!(m.live(), (3 + 5 * 3 + 2, 5));
        assert_eq!(m.index.load(), 20);
    }

    /// Logs the 18 three-word events that fill both buffers (anchor + nine
    /// each, the first closed by a 2-word filler), so the next one is refused.
    fn fill(ring: &Ring<'_, Tally>) {
        for i in 0..18 {
            assert!(ring.append(MajorId::TEST, 0, &[i, i]).is_some());
        }
    }

    #[test]
    fn a_refused_control_event_is_not_data_loss() {
        let (m, tally) = (Memory::new(), Tally::default());
        let ring = m.ring(Mode::Stream, &tally);
        fill(&ring);
        assert!(ring
            .append(MajorId::CONTROL, control::HEARTBEAT, &[1, 1])
            .is_none());
        assert_eq!((m.dropped.load(), tally.dropped.get()), (0, 0));
        assert!(ring.append(MajorId::TEST, 0, &[1, 1]).is_none());
        assert_eq!((m.dropped.load(), tally.dropped.get()), (1, 1));
    }

    #[test]
    fn flushing_an_untouched_buffer_is_a_no_op() {
        let (m, tally) = (Memory::new(), Tally::default());
        assert!(!m.ring(Mode::Stream, &tally).flush());
        assert_eq!((m.index.load(), m.live()), (0, (0, 0)));
    }

    #[test]
    fn a_flush_seals_pending_drops_once_a_slot_is_free() {
        let (m, tally) = (Memory::new(), Tally::default());
        let ring = m.ring(Mode::Stream, &tally);
        fill(&ring);
        assert!(ring.append(MajorId::TEST, 0, &[1, 1]).is_none());
        // No free slot: the partial buffer closes, the count stays pending.
        assert!(ring.flush());
        let full = 2 * BUFFER_WORDS as u64;
        assert_eq!(
            (m.index.load(), m.live().0, m.dropped.load()),
            (full, full, 1)
        );
        // The consumer takes buffer 0; the next flush seals into its slot.
        m.committed[0].take();
        m.consumed.store(1);
        assert!(ring.flush());
        assert_eq!(
            (m.index.load(), m.dropped.load()),
            (full + BUFFER_WORDS as u64, 0)
        );
        let header = |at: usize| EventHeader::decode(m.words[at].load()).unwrap();
        assert!(header(0).is_time_anchor());
        let marker = (header(3).major, header(3).minor, m.words[4].load());
        assert_eq!(marker, (MajorId::CONTROL, control::DROPPED, 1));
        let mut at = ANCHOR_WORDS + DROPPED_WORDS;
        while at < BUFFER_WORDS {
            assert!(header(at).is_filler(), "filler to the boundary at {at}");
            at += header(at).len_words as usize;
        }
        assert_eq!(
            m.committed[0].load(),
            BUFFER_WORDS as u64,
            "complete, no events"
        );
        assert_eq!(tally.dropped.get(), 1, "neither flush tallied a drop");
    }

    #[test]
    fn a_flight_wrap_retires_the_overwritten_slot() {
        let (m, tally) = (Memory::new(), Tally::default());
        let ring = m.ring(Mode::FlightRecorder, &tally);
        let logged = 40u64;
        for i in 0..logged {
            assert!(ring.append(MajorId::TEST, 0, &[i, i, i]).is_some());
        }
        assert!(tally.overwrites.get() > 0, "the region wrapped");
        assert!(tally.retired.get() > 0, "each wrap retired its slot");
        assert_eq!(tally.retired.get() + m.live().1, logged, "counted once");
    }
}
