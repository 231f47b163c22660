//! Every metric and workload the benchmark prints, by name: the one table
//! `BENCHMARK.json`, the README and the output all agree with.

/// Which way a metric gets better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "capture_stream",
        why: "closed loop, one producer at full speed into a memory sink: reserve/commit bounds the producer, take_buffer and write_buffer the drainer",
    },
    Workload {
        name: "capture_masked",
        why: "the same calls with only the 3 % FS major enabled: the mask gate does nearly all the work, so a drain-path change must not move it",
    },
    Workload {
        name: "capture_paced",
        why: "open loop, 200 k events/s in 1 ms bursts: the drainer is almost idle, so its sleep-poll dominates CPU per event",
    },
    Workload {
        name: "analyze_file",
        why: "batch over a clean 1 M-event file: lint, load, index, property check, lock report - the read side; capture layers do nothing",
    },
    Workload {
        name: "salvage_damaged",
        why: "the same file truncated and corrupted: the tolerant walker is the reader used differently, a strict-reader gain that costs salvage shows here",
    },
    Workload {
        name: "fleet_ingest",
        why: "bursts of 240 pre-encoded records over 2 connections into a fresh collector: decode, hand-off, shard write; drops impossible by construction",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "app_ns_per_event",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ns_per_event",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "bytes_per_event",
        unit: "B",
        better: Better::Lower,
        bound: 0.005,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// The 29 per-layer metrics, then the three per-run readings printed with
/// them. The part of a name before the dot is the crate.
pub const LAYERS: &[Layer] = &[
    layer(
        "core.log_ns_per_event",
        "ns",
        Lower,
        "app_ns_per_event, events_per_s @ capture_stream; nothing @ analyze_file",
    ),
    layer(
        "core.log_chunk_ns_p99",
        "ns",
        Lower,
        "informational (steal-sensitive), never gated",
    ),
    layer(
        "core.masked_ns_per_call",
        "ns",
        Lower,
        "app_ns_per_event @ capture_masked",
    ),
    layer(
        "core.log_retry_share",
        "ratio",
        Lower,
        "events_per_s @ capture_stream (drainer behind)",
    ),
    layer(
        "core.take_buffer_ns_per_buffer",
        "ns",
        Lower,
        "cpu_ns_per_event @ capture_stream; nothing @ capture_masked",
    ),
    layer(
        "core.filler_word_share",
        "ratio",
        Lower,
        "bytes_per_event @ capture_stream",
    ),
    layer(
        "clock.now_ns",
        "ns",
        Lower,
        "app_ns_per_event @ capture_stream",
    ),
    layer(
        "io.write_buffer_ns_per_buffer",
        "ns",
        Lower,
        "cpu_ns_per_event @ capture_stream",
    ),
    layer(
        "io.session_idle_cpu_ms_per_s",
        "ms/s",
        Lower,
        "cpu_ns_per_event @ capture_paced",
    ),
    layer(
        "io.session_finish_ms",
        "ms",
        Lower,
        "tail of events_per_s @ capture_stream",
    ),
    layer(
        "io.reader_open_ms",
        "ms",
        Lower,
        "events_per_s @ analyze_file",
    ),
    layer(
        "io.reader_ns_per_event",
        "ns",
        Lower,
        "events_per_s @ analyze_file",
    ),
    layer(
        "io.salvage_ns_per_event",
        "ns",
        Lower,
        "events_per_s @ salvage_damaged",
    ),
    layer(
        "io.salvage_resyncs",
        "count",
        Lower,
        "exact-repeat count; explains io.salvage_ns_per_event",
    ),
    layer(
        "io.salvage_recovered_share",
        "ratio",
        Higher,
        "failed events @ salvage_damaged",
    ),
    layer(
        "verify.lint_ns_per_event",
        "ns",
        Lower,
        "events_per_s @ analyze_file",
    ),
    layer(
        "query.load_ns_per_event",
        "ns",
        Lower,
        "events_per_s, peak_rss_mb @ analyze_file",
    ),
    layer(
        "query.salvage_load_ns_per_event",
        "ns",
        Lower,
        "events_per_s @ salvage_damaged",
    ),
    layer(
        "query.index_build_ns_per_event",
        "ns",
        Lower,
        "events_per_s @ analyze_file",
    ),
    layer(
        "query.spec_check_ns_per_event",
        "ns",
        Lower,
        "events_per_s @ analyze_file, salvage_damaged",
    ),
    layer(
        "query.rss_bytes_per_event",
        "B",
        Lower,
        "peak_rss_mb @ analyze_file",
    ),
    layer(
        "query.window_candidate_share",
        "ratio",
        Lower,
        "useful-to-attempted ratio of a 1 % window; guards the index",
    ),
    layer(
        "analysis.trace_load_ns_per_event",
        "ns",
        Lower,
        "events_per_s, peak_rss_mb @ analyze_file",
    ),
    layer(
        "analysis.lockstat_ns_per_event",
        "ns",
        Lower,
        "events_per_s @ analyze_file",
    ),
    layer(
        "collectd.ingest_ns_per_record",
        "ns",
        Lower,
        "events_per_s @ fleet_ingest",
    ),
    layer(
        "collectd.send_blocked_share",
        "ratio",
        Lower,
        "backpressure; bottleneck marker for fleet_ingest",
    ),
    layer(
        "collectd.settle_ms",
        "ms",
        Lower,
        "queue tail of events_per_s @ fleet_ingest",
    ),
    layer(
        "collectd.store_append_ns_per_record",
        "ns",
        Lower,
        "events_per_s, cpu_ns_per_event @ fleet_ingest",
    ),
    layer(
        "collectd.drop_share",
        "ratio",
        Lower,
        "failed events @ fleet_ingest",
    ),
    layer(
        "ledger.unaccounted_share",
        "ratio",
        Lower,
        "1 - sum of layer self time / untraced end-to-end time of the traced workload",
    ),
    layer(
        "trace_overhead_share",
        "ratio",
        Lower,
        "traced / untraced time of the traced workload - 1",
    ),
    layer(
        "host.calib_ns_per_iter",
        "ns",
        Lower,
        "the host's speed before the run; explains a shift in every other reading",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// `{"name": "<name>", "unit": "<unit>", "better": "<better>"` as
    /// `BENCHMARK.json` spells a metric.
    fn entry(name: &str, unit: &str, better: Better) -> String {
        format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
            better.as_str()
        )
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        for w in WORKLOADS {
            let line = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(
                BENCHMARK_JSON.contains(&line),
                "workload {} differs",
                w.name
            );
            assert!(w.why.len() <= 200 && w.why.is_ascii(), "{}", w.name);
        }
        for m in END_TO_END {
            let line = format!(
                "{}, \"bound\": {}}}",
                entry(m.name, m.unit, m.better),
                m.bound
            );
            assert!(
                BENCHMARK_JSON.contains(&line),
                "end-to-end metric {} differs",
                m.name
            );
        }
        for l in LAYERS {
            let line = format!("{}}}", entry(l.name, l.unit, l.better));
            assert!(
                BENCHMARK_JSON.contains(&line),
                "per-layer metric {} differs",
                l.name
            );
        }
        let listed = BENCHMARK_JSON.matches("{\"name\": ").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + LAYERS.len());
    }

    #[test]
    fn names_are_unique_and_the_layer_count_is_what_the_issue_fixed() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(LAYERS.iter().map(|l| l.name))
            .collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
        assert_eq!(LAYERS.len(), 29 + 3);
        assert_eq!(END_TO_END.iter().filter(|m| m.name == "setup_s").count(), 1);
    }
}
