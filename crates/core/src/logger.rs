//! The user-facing logging API.
//!
//! [`TraceLogger`] owns one [`CpuRegion`] per logical CPU (cache-padded so
//! reservation CASes on different CPUs never share a line), the single
//! [`TraceMask`] consulted by every log statement, and the self-describing
//! [`EventRegistry`]. [`CpuHandle`] is the analogue of K42's user-mapped
//! per-processor control structure: a cheap, cloneable binding of one
//! thread to one CPU's buffers, through which events are logged with no
//! syscall and no lock.
//!
//! An event is appended through [`CpuHandle::log_event`] (a generated
//! emitter's typed event), [`CpuHandle::log_slice`] (major, minor, payload
//! words), [`CpuHandle::log_fields`] (field values encoded by the registered
//! descriptor, for string-bearing events), or [`TraceLogger::log`] (the same
//! as `log_slice` on a CPU named per call). The fast paths check the mask
//! first and are `#[inline]`, so a disabled major costs a relaxed load, an
//! AND, and a branch — the Rust rendering of the paper's "4 machine
//! instructions" (measured in E3).

use crate::config::{Mode, TraceConfig};
use crate::error::CoreError;
use crate::reader::{parse_buffer, GarbleNote, RawEvent};
use crate::region::{CompletedBuffer, CpuRegion, DrainerWake, RegionSnapshot};
use crate::sample::SampleGate;
use ktrace_clock::ClockSource;
use ktrace_format::ids::control;
use ktrace_format::{
    Event, EventDescriptor, EventRegistry, FieldValue, MajorId, MinorId, TraceMask,
};
use ktrace_telemetry::{CpuCounters, Telemetry};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

struct Shared {
    config: TraceConfig,
    mask: TraceMask,
    sample: SampleGate,
    regions: Box<[CpuRegion]>,
    registry: RwLock<EventRegistry>,
    tel: Arc<Telemetry>,
    wake: Arc<DrainerWake>,
    clock: Arc<dyn ClockSource>,
}

// Slices of these are indexed by CPU: a reservation CAS or a tally on one
// CPU must never share a (pair-prefetched) cache line with its neighbour's.
const _: () =
    assert!(std::mem::align_of::<CpuRegion>() == 128 && std::mem::align_of::<CpuCounters>() == 128);

/// The one gate every `log*` passes, and the one place `trace-off` is
/// spelled: compiled out, then the mask bit, then the sampling gate. A
/// refusal tallies as masked on `cpu` (when there is such a CPU), so
/// `logged + masked == attempts` stays exact. The mask keeps `CONTROL`'s
/// bit and the gate admits `CONTROL` at any rate, so control traffic is
/// refused only when tracing is compiled out.
#[inline(always)]
fn admit(shared: &Shared, cpu: usize, major: MajorId) -> bool {
    if cfg!(feature = "trace-off") {
        return false;
    }
    if shared.mask.is_enabled(major) && shared.sample.admit(major) {
        return true;
    }
    if cpu < shared.tel.ncpus() {
        shared.tel.cpu(cpu).tally_masked();
    }
    false
}

/// The unified, per-CPU, lockless trace logger.
///
/// Cloning is cheap (an `Arc` bump); clones share buffers, mask, and
/// registry.
#[derive(Clone)]
pub struct TraceLogger {
    shared: Arc<Shared>,
}

/// The result of a crash-resilient flight-recorder dump
/// ([`TraceLogger::dump_last`]): the surviving events plus an account of what
/// the tear cost.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// The most recent events, time-sorted, control events excluded.
    pub events: Vec<RawEvent>,
    /// Buffers examined across all CPU regions.
    pub buffers_scanned: usize,
    /// Buffers whose event chain was damaged (decoded up to the tear).
    pub garbled_buffers: usize,
    /// Every anomaly, attributed to `(cpu, seq)`.
    pub notes: Vec<(usize, u64, GarbleNote)>,
}

impl FlightDump {
    /// True if every scanned buffer decoded cleanly.
    pub fn clean(&self) -> bool {
        self.notes.is_empty()
    }
}

impl TraceLogger {
    /// Fluent construction with named steps and defaults — see
    /// [`LoggerBuilder`](crate::builder::LoggerBuilder).
    pub fn builder() -> crate::builder::LoggerBuilder {
        crate::builder::LoggerBuilder::default()
    }

    /// Shared constructor behind [`TraceLogger::builder`].
    pub(crate) fn construct(
        config: TraceConfig,
        clock: Arc<dyn ClockSource>,
        ncpus: usize,
        mask: TraceMask,
    ) -> Result<TraceLogger, CoreError> {
        config.validate()?;
        if ncpus == 0 {
            return Err(CoreError::BadConfig("ncpus must be at least 1"));
        }
        let tel = Arc::new(Telemetry::with_slots(ncpus, config.buffers_per_cpu));
        let wake = Arc::new(DrainerWake::default());
        let regions = (0..ncpus)
            .map(|cpu| {
                CpuRegion::in_logger(config, clock.clone(), cpu, tel.clone(), cpu, wake.clone())
            })
            .collect();
        Ok(TraceLogger {
            shared: Arc::new(Shared {
                config,
                mask,
                sample: SampleGate::new(),
                regions,
                registry: RwLock::new(EventRegistry::with_builtin()),
                tel,
                wake,
                clock,
            }),
        })
    }

    /// Number of per-CPU regions.
    pub fn ncpus(&self) -> usize {
        self.shared.regions.len()
    }

    /// The buffer geometry.
    pub fn config(&self) -> TraceConfig {
        self.shared.config
    }

    /// The clock every CPU region timestamps with — the one a trace file's
    /// header describes (tick rate, synchronized or per-CPU).
    pub fn clock(&self) -> &Arc<dyn ClockSource> {
        &self.shared.clock
    }

    /// The trace mask gating all majors (shared by every handle).
    pub fn mask(&self) -> &TraceMask {
        &self.shared.mask
    }

    /// The sampling gate consulted (after the mask) by every `log*` fast
    /// path. The adaptive controller raises its one rate here when shedding
    /// detail; it defaults to rate 1 (keep all).
    pub fn sampling(&self) -> &SampleGate {
        &self.shared.sample
    }

    /// Registers a self-describing event descriptor.
    pub fn register_event(&self, major: MajorId, minor: MinorId, desc: EventDescriptor) {
        self.shared
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .register(major, minor, desc);
    }

    /// A snapshot of the event registry (for embedding into trace files).
    pub fn registry(&self) -> EventRegistry {
        self.shared
            .registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// A handle binding the calling thread to `cpu`'s buffers.
    pub fn handle(&self, cpu: usize) -> Result<CpuHandle, CoreError> {
        if cpu >= self.ncpus() {
            return Err(CoreError::BadCpu {
                cpu,
                ncpus: self.ncpus(),
            });
        }
        Ok(CpuHandle {
            shared: self.shared.clone(),
            cpu: cpu as u32,
        })
    }

    fn region(&self, cpu: usize) -> &CpuRegion {
        &self.shared.regions[cpu]
    }

    /// Logs an event on `cpu` if its major is enabled. Returns true if
    /// logged. Errors (overrun, oversized) read as "not logged".
    #[inline]
    pub fn log(&self, cpu: usize, major: MajorId, minor: MinorId, payload: &[u64]) -> bool {
        admit(&self.shared, cpu, major) && self.region(cpu).log_raw(major, minor, payload).is_ok()
    }

    /// Force-closes `cpu`'s current partial buffer so it can be drained,
    /// then, if a slot is free, seals its pending drops into a buffer of
    /// their own (anchor + `DROPPED` + filler).
    pub fn flush_cpu(&self, cpu: usize) -> bool {
        self.region(cpu).flush()
    }

    /// Flushes every CPU. Once quiesced, a CPU with a free slot is left
    /// with no drop that its stream does not record.
    pub fn flush_all(&self) {
        for cpu in 0..self.ncpus() {
            self.flush_cpu(cpu);
        }
    }

    /// Takes the oldest completed buffer from `cpu` (stream mode).
    pub fn take_buffer(&self, cpu: usize) -> Option<CompletedBuffer> {
        self.region(cpu).take_buffer()
    }

    /// Parks the calling thread until a writer closes a buffer on any CPU,
    /// or until `deadline` (`None`: no deadline) — the consumer half of the
    /// drainer's wake-up handshake, whose argument that no close is missed
    /// is on `region::DrainerWake`. The caller becomes the wake target,
    /// replacing any earlier one. Returns at once if a closed buffer already
    /// waits, and after any return from the park — a writer's wake-up, the
    /// deadline, or another thread's `unpark` (how a session stops its
    /// drainer). Each return from the park tallies one
    /// `sink.drainer_wakeups`.
    pub fn wait_for_buffer(&self, deadline: Option<Instant>) {
        self.shared.wake.announce();
        if !self.shared.regions.iter().any(CpuRegion::has_closed_buffer) {
            match deadline {
                None => std::thread::park(),
                Some(d) => std::thread::park_timeout(d.saturating_duration_since(Instant::now())),
            }
            self.shared.tel.sink().tally_drainer_wakeup();
        }
        self.shared.wake.withdraw();
    }

    /// Flushes and drains every CPU, returning buffers grouped by CPU. A
    /// CPU whose slots are all full when it is flushed keeps its pending
    /// drops: drain it first for its last marker to be among them.
    pub fn drain_all(&self) -> Vec<Vec<CompletedBuffer>> {
        self.flush_all();
        (0..self.ncpus())
            .map(|cpu| std::iter::from_fn(|| self.take_buffer(cpu)).collect())
            .collect()
    }

    /// Snapshots `cpu`'s region (flight-recorder inspection).
    pub fn snapshot(&self, cpu: usize) -> RegionSnapshot {
        self.region(cpu).snapshot()
    }

    /// The flight-recorder dump (§4.2): the most recent `last_n` events
    /// across all CPUs, optionally restricted to certain majors — mirroring
    /// the debugger hook that "has features to show only certain type of
    /// events and has control as to how many events it displays".
    ///
    /// It also reports what was *lost*: garbled buffers (a CPU killed
    /// mid-reservation leaves a torn, uncommitted extent) are decoded up to
    /// the tear and the anomalies are returned alongside the surviving
    /// events, instead of being dropped silently. This is the dump a
    /// debugger takes after a crash (§4.2), where the tail of the stream is
    /// garbled by construction. Works in either mode; in stream mode it sees
    /// only undrained data.
    pub fn dump_last(&self, last_n: usize, majors: Option<&[MajorId]>) -> FlightDump {
        let mut dump = FlightDump {
            events: Vec::new(),
            buffers_scanned: 0,
            garbled_buffers: 0,
            notes: Vec::new(),
        };
        for cpu in 0..self.ncpus() {
            let snap = self.snapshot(cpu);
            let mut hint = None;
            for seq in snap.oldest_seq()..=snap.current_seq() {
                if let Some(words) = snap.buffer(seq) {
                    let parsed = parse_buffer(cpu, seq, words, hint);
                    hint = parsed.end_time;
                    dump.buffers_scanned += 1;
                    if !parsed.notes.is_empty() {
                        dump.garbled_buffers += 1;
                        dump.notes
                            .extend(parsed.notes.into_iter().map(|n| (cpu, seq, n)));
                    }
                    dump.events.extend(parsed.events);
                }
            }
        }
        dump.events.retain(|e| !e.is_control());
        if let Some(keep) = majors {
            dump.events.retain(|e| keep.contains(&e.major));
        }
        dump.events.sort_by_key(RawEvent::order_key);
        if dump.events.len() > last_n {
            dump.events.drain(..dump.events.len() - last_n);
        }
        dump
    }

    /// Fault injection: XORs `mask` into `cpu`'s region word at unwrapped
    /// index `at` (header tearing / payload flips).
    pub fn fault_corrupt_word(&self, cpu: usize, at: u64, mask: u64) {
        self.region(cpu).corrupt_word(at, mask);
    }

    /// Fault injection: skews `cpu`'s commit count for buffer slot `slot` by
    /// `delta` words — the "not enough / too much data" §3.1 anomalies.
    pub fn fault_desync_commit(&self, cpu: usize, slot: usize, delta: i64) {
        self.region(cpu).desync_commit(slot, delta);
    }

    /// The lock-free self-metrics registry shared by every region and handle.
    ///
    /// Snapshot it with [`Telemetry::snapshot`] for exposition
    /// (`ktrace-telemetry`'s Prometheus/JSON renderers, `ktrace-tools top`).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.tel
    }

    /// Logs a `CONTROL`/`HEARTBEAT` event on `cpu` carrying the current
    /// telemetry counter block *into the trace itself*, so post-processing
    /// can plot tracer health over trace time (schema:
    /// [`control::HEARTBEAT_METRICS`]).
    ///
    /// Heartbeats ride the same lockless reservation path as data events but
    /// are **not** counted in `events_logged` — the invariant `data events in
    /// file == events_logged - sink losses` stays exact. The mask does not
    /// gate CONTROL traffic.
    pub fn log_heartbeat(&self, cpu: usize) -> bool {
        if cpu >= self.ncpus() || !admit(&self.shared, cpu, MajorId::CONTROL) {
            return false;
        }
        let payload = self.shared.tel.heartbeat_payload(cpu);
        let ok = self
            .region(cpu)
            .log_control(control::HEARTBEAT, &payload)
            .is_ok();
        if ok {
            self.shared.tel.sink().tally_heartbeat();
        }
        ok
    }

    /// Logs an arbitrary `CONTROL` event on `cpu` — the audit channel the
    /// adaptive control plane uses for its `ANOMALY` / `MASK_ADJUST` /
    /// `SAMPLE_ADJUST` decisions, so every intervention is queryable
    /// post-hoc from the trace itself.
    ///
    /// Like heartbeats, audit events ride the lockless reservation path but
    /// are *not* counted in `events_logged`, and neither the mask nor the
    /// sampling gate applies to CONTROL traffic.
    pub fn log_control_event(&self, cpu: usize, minor: MinorId, payload: &[u64]) -> bool {
        cpu < self.ncpus()
            && admit(&self.shared, cpu, MajorId::CONTROL)
            && self.region(cpu).log_control(minor, payload).is_ok()
    }

    /// Per-CPU ring occupancy: `(outstanding_words, capacity_words)` —
    /// words reserved but not yet released by the consumer, versus the total
    /// ring size. The live monitor (`ktrace-tools top`) renders this as a
    /// fill gauge; in flight-recorder mode nothing is ever consumed, so a
    /// full ring is the steady state.
    pub fn occupancy(&self, cpu: usize) -> (u64, u64) {
        let r = self.region(cpu);
        let bw = self.shared.config.buffer_words as u64;
        let cap = bw * self.shared.config.buffers_per_cpu as u64;
        let outstanding = r.index().saturating_sub(r.buffers_consumed() * bw);
        (outstanding.min(cap), cap)
    }

    /// Whether this logger streams to a consumer or runs as a flight
    /// recorder.
    pub fn mode(&self) -> Mode {
        self.shared.config.mode
    }
}

impl std::fmt::Debug for TraceLogger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLogger")
            .field("ncpus", &self.ncpus())
            .field("config", &self.shared.config)
            .finish()
    }
}

/// A thread's binding to one CPU's trace buffers.
///
/// The K42 analogue is the per-processor trace control structure mapped into
/// the application's address space: log calls through a handle touch only
/// that CPU's cache lines.
#[derive(Clone)]
pub struct CpuHandle {
    shared: Arc<Shared>,
    cpu: u32,
}

impl CpuHandle {
    #[inline]
    fn region(&self) -> &CpuRegion {
        &self.shared.regions[self.cpu as usize]
    }

    /// The CPU this handle is bound to.
    pub fn cpu(&self) -> usize {
        self.cpu as usize
    }

    /// The shared trace mask.
    #[inline]
    pub fn mask(&self) -> &TraceMask {
        &self.shared.mask
    }

    /// Logs an event with an arbitrary payload slice.
    #[inline]
    pub fn log_slice(&self, major: MajorId, minor: MinorId, payload: &[u64]) -> bool {
        admit(&self.shared, self.cpu as usize, major)
            && self.region().log_raw(major, minor, payload).is_ok()
    }

    /// Logs an event built by one of `ktrace_events`' generated emitters,
    /// whose major, minor and arity the declaration fixed at compile time.
    #[inline]
    pub fn log_event<P: AsRef<[u64]>>(&self, e: &Event<P>) -> bool {
        self.log_slice(e.major(), e.minor(), e.payload())
    }

    /// Fault injection: abandons a reservation of `total_words` on this
    /// handle's CPU — the §3.1 killed-logger scenario, used by crash
    /// injection to tear the stream exactly where a dying CPU would.
    pub fn fault_abandon_reservation(&self, total_words: usize) -> Option<u64> {
        self.region().abandon_reservation(total_words)
    }

    /// Encodes `values` according to the registered descriptor's field spec
    /// and logs the event. Events with string fields go through here; hot
    /// fixed-arity events use [`log_event`](CpuHandle::log_event) or
    /// [`log_slice`](CpuHandle::log_slice).
    pub fn log_fields(
        &self,
        major: MajorId,
        minor: MinorId,
        values: &[FieldValue],
    ) -> Result<bool, CoreError> {
        if !admit(&self.shared, self.cpu as usize, major) {
            return Ok(false);
        }
        let words = {
            let registry = self
                .shared
                .registry
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            match registry.lookup(major, minor) {
                Some(desc) => desc
                    .spec
                    .encode(values)
                    .map_err(|_| CoreError::BadConfig("field values do not match spec"))?,
                None => values.iter().map(FieldValue::as_int).collect(),
            }
        };
        self.region().log_raw(major, minor, &words).map(|()| true)
    }
}

impl std::fmt::Debug for CpuHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuHandle").field("cpu", &self.cpu).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_clock::{ManualClock, SyncClock};

    fn logger(ncpus: usize) -> TraceLogger {
        TraceLogger::builder()
            .geometry(TraceConfig::small())
            .clock(Arc::new(ManualClock::new(1, 1)))
            .ncpus(ncpus)
            .build()
            .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(TraceLogger::builder()
            .geometry(TraceConfig::small())
            .clock(Arc::new(SyncClock::new()))
            .ncpus(0)
            .build()
            .is_err());
        let mut bad = TraceConfig::small();
        bad.buffer_words = 100;
        assert!(TraceLogger::builder()
            .geometry(bad)
            .clock(Arc::new(SyncClock::new()))
            .ncpus(1)
            .build()
            .is_err());
        assert!(logger(4).handle(4).is_err());
        assert!(logger(4).handle(3).is_ok());
    }

    #[test]
    fn mask_gates_logging() {
        let l = logger(1);
        let h = l.handle(0).unwrap();
        l.mask().disable(MajorId::MEM);
        assert!(!h.log_slice(MajorId::MEM, 1, &[42]));
        assert!(h.log_slice(MajorId::PROC, 1, &[42]));
        l.mask().enable(MajorId::MEM);
        assert!(h.log_slice(MajorId::MEM, 1, &[42]));
        assert_eq!(l.telemetry().snapshot().events_logged(), 2);
    }

    #[test]
    fn arity_helpers_log_expected_payloads() {
        let l = logger(1);
        let h = l.handle(0).unwrap();
        let payloads: Vec<Vec<u64>> = (0..=6u64).map(|n| (1..=n).collect()).collect();
        for (minor, payload) in payloads.iter().enumerate() {
            assert!(h.log_slice(MajorId::TEST, minor as u16, payload));
        }
        let events: Vec<RawEvent> = l.drain_all()[0]
            .iter()
            .flat_map(|b| parse_buffer(0, b.seq, &b.words, None).events)
            .filter(|e| e.major == MajorId::TEST)
            .collect();
        assert_eq!(events.len(), payloads.len());
        for (e, payload) in events.iter().zip(&payloads) {
            assert_eq!(e.minor as usize, payload.len());
            assert_eq!(e.payload, *payload);
        }
    }

    #[test]
    fn log_fields_uses_registry_spec() {
        let l = logger(1);
        l.register_event(
            MajorId::PROC,
            1,
            EventDescriptor::new("TRACE_PROC_EXEC", "64 str", "pid %0[%d] runs %1[%s]").unwrap(),
        );
        let h = l.handle(0).unwrap();
        h.log_fields(
            MajorId::PROC,
            1,
            &[FieldValue::Int(6), FieldValue::Str("/shellServer".into())],
        )
        .unwrap();
        let ev = l.drain_all()[0]
            .iter()
            .flat_map(|b| parse_buffer(0, b.seq, &b.words, None).events)
            .find(|e| e.major == MajorId::PROC)
            .unwrap();
        let registry = l.registry();
        let desc = registry.lookup(MajorId::PROC, 1).unwrap();
        assert_eq!(
            desc.describe(&ev.payload).unwrap(),
            "pid 6 runs /shellServer"
        );
    }

    #[test]
    fn drain_all_collects_everything() {
        let l = logger(3);
        for cpu in 0..3 {
            let h = l.handle(cpu).unwrap();
            for i in 0..40 {
                h.log_slice(MajorId::TEST, cpu as u16, &[i, i * 2]);
            }
        }
        let drained = l.drain_all();
        assert_eq!(drained.len(), 3);
        let mut per_cpu = [0usize; 3];
        for (cpu, bufs) in drained.iter().enumerate() {
            for b in bufs {
                assert!(b.complete);
                per_cpu[cpu] += parse_buffer(cpu, b.seq, &b.words, None)
                    .data_events()
                    .count();
            }
        }
        assert_eq!(per_cpu, [40, 40, 40]);
    }

    #[test]
    fn flight_dump_returns_most_recent_filtered() {
        let cfg = TraceConfig::small().flight_recorder();
        let l = TraceLogger::builder()
            .geometry(cfg)
            .clock(Arc::new(ManualClock::new(1, 1)))
            .ncpus(2)
            .build()
            .unwrap();
        let h0 = l.handle(0).unwrap();
        let h1 = l.handle(1).unwrap();
        for i in 0..2000u64 {
            h0.log_slice(MajorId::MEM, 1, &[i]);
            h1.log_slice(MajorId::SCHED, 2, &[i]);
        }
        let dump = l.dump_last(50, None).events;
        assert_eq!(dump.len(), 50);
        assert!(dump.windows(2).all(|w| w[0].time <= w[1].time));
        // The dump holds the *most recent* events: high payload indices.
        assert!(dump.iter().all(|e| e.payload[0] > 1500));

        let mem_only = l.dump_last(10, Some(&[MajorId::MEM])).events;
        assert!(mem_only.iter().all(|e| e.major == MajorId::MEM));
        assert_eq!(mem_only.len(), 10);
    }

    #[test]
    fn dump_last_reports_torn_reservation() {
        let cfg = TraceConfig::small().flight_recorder();
        let l = TraceLogger::builder()
            .geometry(cfg)
            .clock(Arc::new(ManualClock::new(1, 1)))
            .ncpus(1)
            .build()
            .unwrap();
        let h = l.handle(0).unwrap();
        for i in 0..10u64 {
            h.log_slice(MajorId::TEST, 0, &[i]);
        }
        // A CPU dies mid-reservation: the extent is claimed, never written.
        let at = h.fault_abandon_reservation(5).expect("reserve");
        for i in 0..10u64 {
            h.log_slice(MajorId::TEST, 1, &[i]);
        }
        let dump = l.dump_last(64, None);
        assert!(!dump.clean());
        assert_eq!(dump.garbled_buffers, 1);
        assert!(dump.notes.iter().any(|(cpu, _, n)| *cpu == 0
            && matches!(n, GarbleNote::ZeroHeader { offset } if *offset as u64 == at)));
        // Events logged before the tear survive in the dump.
        assert!(dump
            .events
            .iter()
            .any(|e| e.major == MajorId::TEST && e.minor == 0));
    }

    #[test]
    fn telemetry_counts_logged_and_masked() {
        let l = logger(2);
        let h0 = l.handle(0).unwrap();
        let h1 = l.handle(1).unwrap();
        for i in 0..10 {
            h0.log_slice(MajorId::TEST, 0, &[i]);
        }
        l.mask().disable(MajorId::MEM);
        for _ in 0..3 {
            h1.log_slice(MajorId::MEM, 0, &[7]);
        }
        assert!(!l.log(1, MajorId::MEM, 0, &[1]));
        let snap = l.telemetry().snapshot();
        assert_eq!(snap.per_cpu[0].events_logged, 10);
        assert_eq!(snap.per_cpu[0].events_masked, 0);
        assert_eq!(snap.per_cpu[1].events_logged, 0);
        assert_eq!(snap.per_cpu[1].events_masked, 4);
        assert_eq!(snap.events_logged(), 10);
        // Reservation wait histogram saw every logged event.
        assert_eq!(
            ktrace_telemetry::hist_count(&snap.per_cpu[0].reserve_wait),
            10
        );
    }

    #[test]
    fn sampling_gate_decimates_after_the_mask() {
        let l = logger(1);
        let h = l.handle(0).unwrap();
        l.sampling().set_rate(4);
        for i in 0..100 {
            h.log_slice(MajorId::TEST, 0, &[i]);
        }
        assert_eq!(l.telemetry().snapshot().events_logged(), 25, "1-in-4 kept");
        // Sampled-out events tally as masked: the telemetry invariant
        // `logged + masked == attempts` stays exact.
        let snap = l.telemetry().snapshot();
        assert_eq!(snap.per_cpu[0].events_masked, 75);
        l.sampling().set_rate(1);
        assert!(h.log_slice(MajorId::TEST, 0, &[0]));
        // The slice/logger paths consult the gate too.
        l.sampling().set_rate(2);
        let kept = (0..10).filter(|_| l.log(0, MajorId::MEM, 0, &[1])).count();
        assert_eq!(kept, 5);
    }

    #[test]
    fn control_events_carry_audit_payloads() {
        let l = logger(1);
        assert!(l.log_control_event(0, control::ANOMALY, &[0, 0, 3500, 42]));
        assert!(!l.log_control_event(9, control::ANOMALY, &[]), "bad cpu");
        assert_eq!(
            l.telemetry().snapshot().events_logged(),
            0,
            "audit traffic is uncounted"
        );
        let ev: Vec<RawEvent> = l.drain_all()[0]
            .iter()
            .flat_map(|b| parse_buffer(0, b.seq, &b.words, None).events)
            .filter(|e| e.major == MajorId::CONTROL && e.minor == control::ANOMALY)
            .collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].payload, vec![0, 0, 3500, 42]);
    }

    #[test]
    fn heartbeat_rides_the_trace_uncounted() {
        let l = logger(1);
        let h = l.handle(0).unwrap();
        for i in 0..5 {
            h.log_slice(MajorId::TEST, 0, &[i]);
        }
        assert!(l.log_heartbeat(0));
        // Heartbeats are control traffic: not a data event.
        assert_eq!(l.telemetry().snapshot().events_logged(), 5);
        assert_eq!(l.telemetry().snapshot().sink.heartbeats_emitted, 1);
        let hb: Vec<RawEvent> = l.drain_all()[0]
            .iter()
            .flat_map(|b| parse_buffer(0, b.seq, &b.words, None).events)
            .filter(|e| e.major == MajorId::CONTROL && e.minor == control::HEARTBEAT)
            .collect();
        assert_eq!(hb.len(), 1);
        assert_eq!(hb[0].payload.len(), control::HEARTBEAT_WORDS);
        assert_eq!(hb[0].payload[0], 0, "cpu slot");
        assert_eq!(hb[0].payload[1], 5, "events_logged slot");
    }

    #[test]
    fn stats_track_consumption() {
        let l = logger(1);
        let h = l.handle(0).unwrap();
        for i in 0..100 {
            h.log_slice(MajorId::TEST, 0, &[i]);
        }
        l.flush_all();
        assert_eq!(l.telemetry().snapshot().events_logged(), 100);
        assert!(l.snapshot(0).index >= 200);
        assert!(l.occupancy(0).0 > 0);
        assert!(!l.drain_all()[0].is_empty());
        assert_eq!(l.occupancy(0).0, 0, "every closed buffer consumed");
    }
}
