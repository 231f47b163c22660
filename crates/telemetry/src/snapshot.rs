//! Point-in-time snapshots and delta computation — the cold half.
//!
//! A [`TelemetrySnapshot`] is a plain-data copy of every counter in a
//! [`Telemetry`] registry, taken with relaxed loads so readers never perturb
//! writers. Two snapshots subtract into an interval delta
//! ([`TelemetrySnapshot::delta`]), which is what live monitors display as
//! rates.

use crate::counters::{bucket_floor, Telemetry, HIST_BUCKETS};
pub use crate::counters::{CpuTelemetry, SalvageTelemetry, SinkTelemetry};
use crate::schema::CounterDesc;
use ktrace_format::ids::control;

/// A point-in-time copy of a whole [`Telemetry`] registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// One block per CPU, index-aligned with the logger's regions.
    pub per_cpu: Vec<CpuTelemetry>,
    /// The drain-side block.
    pub sink: SinkTelemetry,
    /// The salvage block.
    pub salvage: SalvageTelemetry,
}

impl Telemetry {
    /// Copies every counter with relaxed loads. Concurrent tallies may land
    /// on either side of the snapshot; each lands in exactly one. A CPU's
    /// `events_logged` is [`Telemetry::events_logged`]: the retired count
    /// plus the events live in its commit words.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            per_cpu: (0..self.ncpus())
                .map(|cpu| self.cpu_snapshot(cpu))
                .collect(),
            sink: self.sink().snapshot(),
            salvage: self.salvage().snapshot(),
        }
    }

    /// The payload of a `CONTROL`/`HEARTBEAT` event for `cpu`: the CPU
    /// index, then the cumulative value of every `wire`-flagged counter of
    /// the CPU block and of the sink block, in table order — which is
    /// [`control::HEARTBEAT_METRICS`] order, checked at compile time below.
    /// The logger writes this into the trace; exporters decode it back into
    /// counter tracks, and [`TelemetrySnapshot::from_heartbeats`] inverts
    /// it.
    pub fn heartbeat_payload(&self, cpu: usize) -> [u64; control::HEARTBEAT_WORDS] {
        heartbeat_words(&self.cpu_snapshot(cpu), &self.sink().snapshot())
    }

    /// CPU `cpu`'s block with the live commit-word events added: the block
    /// is copied first, its retired count read before the commit words.
    fn cpu_snapshot(&self, cpu: usize) -> CpuTelemetry {
        let mut block = self.cpu(cpu).snapshot(cpu);
        block.events_logged += self.live_events(cpu);
        block
    }
}

fn heartbeat_words(cpu: &CpuTelemetry, sink: &SinkTelemetry) -> [u64; control::HEARTBEAT_WORDS] {
    let mut words = [0; control::HEARTBEAT_WORDS];
    words[0] = cpu.cpu as u64;
    let wired = cpu
        .rows()
        .chain(sink.rows())
        .filter(|(d, _)| d.wire.is_some());
    for (word, (_, value)) in words[1..].iter_mut().zip(wired) {
        *word = value;
    }
    words
}

const fn same(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() && a[i] == b[i] {
        i += 1;
    }
    i == a.len() && i == b.len()
}

/// Checks the `wire`-flagged rows of `rows`, in order, against
/// `HEARTBEAT_METRICS[at..]`; returns the index after the last one.
const fn wire_rows_match(rows: &[CounterDesc], mut at: usize) -> usize {
    let mut i = 0;
    while i < rows.len() {
        if let Some(name) = rows[i].wire {
            assert!(
                at < control::HEARTBEAT_METRICS.len() && same(name, control::HEARTBEAT_METRICS[at]),
                "a heartbeat-flagged counter row disagrees with HEARTBEAT_METRICS"
            );
            at += 1;
        }
        i += 1;
    }
    at
}

// `ktrace_format` owns the wire order; the tables may not drift from it.
const _: () = {
    let at = wire_rows_match(CpuTelemetry::COUNTERS, 0);
    let at = wire_rows_match(SinkTelemetry::COUNTERS, at);
    assert!(
        at == control::HEARTBEAT_METRICS.len() && at + 1 == control::HEARTBEAT_WORDS,
        "HEARTBEAT_METRICS has entries no counter row is flagged for"
    );
    assert!(
        wire_rows_match(SalvageTelemetry::COUNTERS, at) == at,
        "only the CPU and sink blocks ride the heartbeat"
    );
};

impl TelemetrySnapshot {
    /// Rebuilds a snapshot from the latest heartbeat payload of each CPU —
    /// the inverse of [`Telemetry::heartbeat_payload`], for readers that
    /// have a node's trace stream but not its registry. Every flagged
    /// counter comes back bit-identical; per-CPU counters map beat by beat,
    /// and the sink counters (which every CPU's beat reports
    /// identically-or-staler) take the maximum across beats. Counters and
    /// histograms the payload does not carry come back zero.
    pub fn from_heartbeats(beats: &[[u64; control::HEARTBEAT_WORDS]]) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        for beat in beats {
            let mut cpu = CpuTelemetry {
                cpu: beat[0] as usize,
                ..CpuTelemetry::default()
            };
            let mut sink = SinkTelemetry::default();
            let wired = cpu
                .rows_mut()
                .chain(sink.rows_mut())
                .filter(|(d, _)| d.wire.is_some());
            for ((_, value), word) in wired.zip(&beat[1..]) {
                *value = *word;
            }
            for ((_, max), (_, seen)) in snap.sink.rows_mut().zip(sink.rows()) {
                *max = (*max).max(seen);
            }
            snap.per_cpu.push(cpu);
        }
        snap
    }

    /// The interval delta `self - earlier` (saturating, so a restarted or
    /// mismatched earlier snapshot yields zeros rather than garbage). CPUs
    /// present only in `self` are carried through unchanged.
    pub fn delta(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let zero = CpuTelemetry::default();
        TelemetrySnapshot {
            per_cpu: self
                .per_cpu
                .iter()
                .map(|c| c.delta(earlier.per_cpu.get(c.cpu).unwrap_or(&zero)))
                .collect(),
            sink: self.sink.delta(&earlier.sink),
            salvage: self.salvage.delta(&earlier.salvage),
        }
    }
}

/// Total observation count in a histogram snapshot.
pub fn hist_count(buckets: &[u64; HIST_BUCKETS]) -> u64 {
    buckets.iter().sum()
}

/// The lower bound of the bucket containing quantile `q` (0.0–1.0), or 0 for
/// an empty histogram. Log2 buckets bound the answer to within 2×.
pub fn hist_quantile(buckets: &[u64; HIST_BUCKETS], q: f64) -> u64 {
    let total = hist_count(buckets);
    if total == 0 {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_floor(i);
        }
    }
    bucket_floor(HIST_BUCKETS - 1)
}

/// Mean observed value, from the tracked sum and the bucket counts.
pub fn hist_mean(buckets: &[u64; HIST_BUCKETS], sum: u64) -> f64 {
    let n = hist_count(buckets);
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::bucket_index;
    use crate::ReserveTally;

    fn loaded() -> Telemetry {
        // Ten events on CPU 0: six retired, four live in a commit word.
        let t = Telemetry::with_slots(2, 4);
        t.cpu(0).tally_retired(6);
        t.commits(0)[1].commit(12, 4);
        t.cpu(0).tally_cas_retry();
        t.cpu(0).observe_reserve_wait(4);
        t.cpu(1).tally_dropped();
        t.sink().tally_record_written();
        t.sink().observe_drain_write(100);
        t.salvage().tally_run(1, 2, 3, 4);
        t
    }

    #[test]
    fn snapshot_copies_everything() {
        let t = loaded();
        let s = t.snapshot();
        assert_eq!(s.per_cpu.len(), 2);
        assert_eq!(s.per_cpu[0].events_logged, 10);
        assert_eq!(s.per_cpu[0].cas_retries, 1);
        assert_eq!(s.per_cpu[0].reserve_wait[bucket_index(4)], 1);
        assert_eq!(s.per_cpu[0].reserve_wait_sum, 4);
        assert_eq!(s.per_cpu[1].events_dropped, 1);
        assert_eq!(s.sink.records_written, 1);
        assert_eq!(s.sink.drain_write_sum, 100);
        assert_eq!(s.salvage.events_recovered, 2);
        assert_eq!(s.events_logged(), 10);
        assert_eq!(s.events_dropped(), 1);
        assert_eq!(s.cas_retries(), 1);
    }

    #[test]
    fn delta_subtracts_and_saturates() {
        let t = loaded();
        let s1 = t.snapshot();
        t.commits(0)[2].commit(5, 5);
        t.sink().tally_record_written();
        let s2 = t.snapshot();
        let d = s2.delta(&s1);
        assert_eq!(d.per_cpu[0].events_logged, 5);
        assert_eq!(d.per_cpu[0].cas_retries, 0);
        assert_eq!(d.sink.records_written, 1);
        assert_eq!(d.salvage.runs, 0);
        // Reversed order saturates to zero instead of wrapping.
        let r = s1.delta(&s2);
        assert_eq!(r.per_cpu[0].events_logged, 0);
    }

    #[test]
    fn heartbeat_payload_matches_shared_schema() {
        let t = loaded();
        let p = t.heartbeat_payload(0);
        assert_eq!(p.len(), control::HEARTBEAT_WORDS);
        assert_eq!(p[0], 0, "leading field is the cpu id");
        // Index-align each metric name with its payload slot.
        let by_name = |name: &str| {
            let i = control::HEARTBEAT_METRICS
                .iter()
                .position(|m| *m == name)
                .unwrap();
            p[i + 1]
        };
        assert_eq!(by_name("events_logged"), 10);
        assert_eq!(by_name("cas_retries"), 1);
        assert_eq!(by_name("sink_records_written"), 1);
        assert_eq!(by_name("sink_buffers_dropped"), 0);
    }

    #[test]
    fn beats_rebuild_a_snapshot() {
        // A beat per CPU, in HEARTBEAT payload order:
        // [cpu, logged, masked, dropped, cas, filler, wraps, overwrites,
        //  sink_records, sink_dropped].
        let beats = [
            [0u64, 100, 2, 1, 7, 40, 5, 0, 12, 1],
            [1u64, 90, 0, 0, 3, 32, 4, 0, 13, 1],
        ];
        let snap = TelemetrySnapshot::from_heartbeats(&beats);
        assert_eq!(snap.per_cpu.len(), 2);
        assert_eq!(snap.per_cpu[0].events_logged, 100);
        assert_eq!(snap.per_cpu[0].cas_retries, 7);
        assert_eq!(snap.per_cpu[1].filler_words, 32);
        assert_eq!(snap.events_logged(), 190);
        // Sink counters are fleet-of-one maxima across the CPUs' beats.
        assert_eq!(snap.sink.records_written, 13);
        assert_eq!(snap.sink.buffers_dropped, 1);
        assert_eq!(snap.salvage.runs, 0);
    }

    /// The HEARTBEAT schema must round-trip: payload → snapshot → payload is
    /// a fixed point for every `wire`-flagged counter, and every unflagged
    /// one comes back zero. Driven by the tables, so a counter added to one
    /// is covered without touching this test.
    #[test]
    fn heartbeat_payloads_round_trip_bit_identically() {
        let mut live = TelemetrySnapshot::default();
        let mut next = 0u64;
        for cpu in 0..2 {
            live.per_cpu.push(CpuTelemetry {
                cpu,
                ..CpuTelemetry::default()
            });
        }
        for (_, v) in live
            .per_cpu
            .iter_mut()
            .flat_map(|c| c.rows_mut())
            .chain(live.sink.rows_mut())
            .chain(live.salvage.rows_mut())
        {
            next += 1;
            *v = next;
        }

        let beats: Vec<_> = live
            .per_cpu
            .iter()
            .map(|c| heartbeat_words(c, &live.sink))
            .collect();
        let rebuilt = TelemetrySnapshot::from_heartbeats(&beats);

        let carried = |(desc, v): (&CounterDesc, u64)| if desc.wire.is_some() { v } else { 0 };
        assert_eq!(rebuilt.per_cpu.len(), live.per_cpu.len());
        for (r, l) in rebuilt.per_cpu.iter().zip(&live.per_cpu) {
            assert_eq!(r.cpu, l.cpu);
            for ((desc, got), want) in r.rows().zip(l.rows().map(carried)) {
                assert_eq!(got, want, "cpu {} {}", l.cpu, desc.name);
            }
        }
        for ((desc, got), want) in rebuilt.sink.rows().zip(live.sink.rows().map(carried)) {
            assert_eq!(got, want, "sink {}", desc.name);
        }
        assert_eq!(rebuilt.salvage, SalvageTelemetry::default());
        assert!(
            beats.iter().all(|b| b[1..].iter().all(|&w| w != 0)),
            "every payload word carried a distinct non-zero counter"
        );

        // And the rebuilt snapshot re-serializes to the identical beats:
        // the schema is a true fixed point, not merely field-compatible.
        for (c, beat) in rebuilt.per_cpu.iter().zip(&beats) {
            assert_eq!(&heartbeat_words(c, &rebuilt.sink), beat, "cpu {}", c.cpu);
        }
    }

    #[test]
    fn quantile_and_mean() {
        let mut buckets = [0u64; HIST_BUCKETS];
        // 90 observations of 1, 10 of 1024.
        buckets[bucket_index(1)] = 90;
        buckets[bucket_index(1024)] = 10;
        assert_eq!(hist_count(&buckets), 100);
        assert_eq!(hist_quantile(&buckets, 0.5), 1);
        assert_eq!(
            hist_quantile(&buckets, 0.99),
            bucket_floor(bucket_index(1024))
        );
        let sum = 90 + 10 * 1024;
        assert!((hist_mean(&buckets, sum) - sum as f64 / 100.0).abs() < 1e-9);
        assert_eq!(hist_quantile(&[0; HIST_BUCKETS], 0.5), 0);
        assert_eq!(hist_mean(&[0; HIST_BUCKETS], 0), 0.0);
    }
}
