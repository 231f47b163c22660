//! Exposition: the Prometheus text format, hand-rolled (the workspace
//! vendors no serialization crates). It renders a [`TelemetrySnapshot`], so
//! scrapes never touch the hot counters beyond relaxed loads.
//!
//! Nothing here names a counter: metric names and help texts are
//! data in the [`counter_block!`](crate::counter_block) tables, and the
//! renderers loop over `rows()`. The fleet collector renders its own blocks
//! through the same [`prom_counters`] / [`prom_family`] / [`label`], so the
//! workspace has one `# HELP` / `# TYPE` writer and one label escaper.

use crate::counters::HIST_BUCKETS;
use crate::schema::{CounterDesc, HistDesc};
use crate::snapshot::{CpuTelemetry, SalvageTelemetry, SinkTelemetry, TelemetrySnapshot};
use std::fmt::Write as _;

/// Upper bound (inclusive) of histogram bucket `i`, as a Prometheus `le`
/// label: bucket 0 is `le="0"`, bucket `i` is `le="2^i - 1"`, the last is
/// `+Inf`.
fn le_label(i: usize) -> String {
    if i == 0 {
        "0".to_string()
    } else if i == HIST_BUCKETS - 1 {
        "+Inf".to_string()
    } else {
        ((1u64 << i) - 1).to_string()
    }
}

/// One `key="value"` label pair. The value is quoted; `\`, `"` and newlines
/// are escaped per the exposition-format rules (a raw newline in a label
/// value would tear the sample line; a raw quote would let wire data such as
/// a node name forge labels).
pub fn label(key: &str, value: &str) -> String {
    let escaped = value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!("{key}=\"{escaped}\"")
}

/// Joins two bare (unbraced) label bodies, either of which may be empty.
fn join_labels(a: &str, b: &str) -> String {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => String::new(),
        (false, true) => a.to_string(),
        (true, false) => b.to_string(),
        (false, false) => format!("{a},{b}"),
    }
}

/// Braces a bare label body for a sample line (empty body → no braces).
fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

fn family_header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one metric family of `kind` (`counter`, `gauge`): the `# HELP` /
/// `# TYPE` header, then one sample per `(bare label body, value)`.
pub fn prom_family(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    samples: &[(String, u64)],
) {
    family_header(out, name, help, kind);
    for (labels, v) in samples {
        let _ = writeln!(out, "{name}{} {v}", braced(labels));
    }
}

/// Writes one `counter` family per row of `descs` that names one, in table
/// order. Each of `blocks` is one instance of the block — its bare label
/// body and its `rows()` values — and contributes one sample per family.
pub fn prom_counters(out: &mut String, descs: &[CounterDesc], blocks: &[(String, Vec<u64>)]) {
    for (i, desc) in descs.iter().enumerate() {
        let Some(name) = desc.prom else { continue };
        let samples: Vec<(String, u64)> = blocks
            .iter()
            .map(|(labels, values)| (labels.clone(), values[i]))
            .collect();
        prom_family(out, name, desc.help, "counter", &samples);
    }
}

fn prom_hist(
    out: &mut String,
    desc: &HistDesc,
    labels: &str,
    buckets: &[u64; HIST_BUCKETS],
    sum: u64,
) {
    let name = desc.prom;
    family_header(out, name, desc.help, "histogram");
    let mut cum = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        cum += n;
        let body = join_labels(labels, &label("le", &le_label(i)));
        let _ = writeln!(out, "{name}_bucket{} {cum}", braced(&body));
    }
    let tail = braced(labels);
    let _ = writeln!(out, "{name}_sum{tail} {sum}");
    let _ = writeln!(out, "{name}_count{tail} {cum}");
}

/// Renders the snapshot in the Prometheus text exposition format. Per-CPU
/// counters carry a `cpu` label; sink and salvage counters are unlabelled.
pub fn to_prometheus(snap: &TelemetrySnapshot) -> String {
    to_prometheus_labeled(snap, &[])
}

/// Like [`to_prometheus`], but with `extra` labels prepended to every
/// sample — how an aggregator renders many snapshots into one exposition
/// (e.g. `[("node", "web-3")]` for per-node fleet health). Label values are
/// escaped by [`label`].
pub fn to_prometheus_labeled(snap: &TelemetrySnapshot, extra: &[(&str, &str)]) -> String {
    let extra = extra
        .iter()
        .map(|(k, v)| label(k, v))
        .collect::<Vec<_>>()
        .join(",");
    let values = |(_, v): (&CounterDesc, u64)| v;
    let mut out = String::new();

    let per_cpu: Vec<(String, Vec<u64>)> = snap
        .per_cpu
        .iter()
        .map(|c| {
            let labels = join_labels(&extra, &label("cpu", &c.cpu.to_string()));
            (labels, c.rows().map(values).collect())
        })
        .collect();
    prom_counters(&mut out, CpuTelemetry::COUNTERS, &per_cpu);
    for (c, (labels, _)) in snap.per_cpu.iter().zip(&per_cpu) {
        for (desc, buckets, sum) in c.histograms() {
            prom_hist(&mut out, desc, labels, buckets, sum);
        }
    }

    let sink = (extra.clone(), snap.sink.rows().map(values).collect());
    prom_counters(&mut out, SinkTelemetry::COUNTERS, &[sink]);
    for (desc, buckets, sum) in snap.sink.histograms() {
        prom_hist(&mut out, desc, &extra, buckets, sum);
    }

    let salvage = (extra.clone(), snap.salvage.rows().map(values).collect());
    prom_counters(&mut out, SalvageTelemetry::COUNTERS, &[salvage]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Telemetry;
    use crate::ReserveTally;

    fn snap() -> TelemetrySnapshot {
        let t = Telemetry::new(2);
        t.cpu(0).tally_retired(2);
        t.cpu(0).observe_reserve_wait(5);
        t.cpu(1).tally_cas_retry();
        t.sink().tally_record_written();
        t.sink().observe_drain_write(2000);
        t.salvage().tally_run(3, 30, 1, 64);
        t.snapshot()
    }

    #[test]
    fn prometheus_text_shape() {
        let text = to_prometheus(&snap());
        assert!(text.contains("# TYPE ktrace_events_logged_total counter"));
        assert!(text.contains("ktrace_events_logged_total{cpu=\"0\"} 2"));
        assert!(text.contains("ktrace_cas_retries_total{cpu=\"1\"} 1"));
        assert!(text.contains("# TYPE ktrace_reserve_wait_ticks histogram"));
        assert!(text.contains("ktrace_reserve_wait_ticks_sum{cpu=\"0\"} 5"));
        assert!(text.contains("ktrace_reserve_wait_ticks_count{cpu=\"0\"} 1"));
        assert!(text.contains("le=\"+Inf\"} 1"));
        assert!(text.contains("ktrace_sink_records_written_total 1"));
        assert!(text.contains("ktrace_drain_write_ns_sum 2000"));
        assert!(text.contains("ktrace_salvage_events_recovered_total 30"));
        // Cumulative buckets never decrease.
        for line_pair in text.lines().collect::<Vec<_>>().windows(2) {
            if let [a, b] = line_pair {
                if a.starts_with("ktrace_reserve_wait_ticks_bucket{cpu=\"0\"")
                    && b.starts_with("ktrace_reserve_wait_ticks_bucket{cpu=\"0\"")
                {
                    let va: u64 = a.rsplit(' ').next().unwrap().parse().unwrap();
                    let vb: u64 = b.rsplit(' ').next().unwrap().parse().unwrap();
                    assert!(vb >= va, "cumulative buckets must be nondecreasing");
                }
            }
        }
    }

    #[test]
    fn labeled_exposition_prefixes_every_sample() {
        let text = to_prometheus_labeled(&snap(), &[("node", "web-3")]);
        assert!(text.contains("ktrace_events_logged_total{node=\"web-3\",cpu=\"0\"} 2"));
        assert!(text.contains("ktrace_sink_records_written_total{node=\"web-3\"} 1"));
        assert!(text.contains("ktrace_reserve_wait_ticks_sum{node=\"web-3\",cpu=\"0\"} 5"));
        assert!(text.contains("ktrace_drain_write_ns_bucket{node=\"web-3\",le=\"+Inf\"} 1"));
        // Every sample line carries the node label.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.contains("node=\"web-3\""), "unlabeled sample: {line}");
        }
        // Quote characters in values are escaped.
        let tricky = to_prometheus_labeled(&snap(), &[("node", "a\"b")]);
        assert!(tricky.contains("node=\"a\\\"b\""));
        // The unlabeled renderer is the labeled one with no labels.
        assert_eq!(to_prometheus(&snap()), to_prometheus_labeled(&snap(), &[]));
    }

    #[test]
    fn labeled_exposition_escapes_hostile_values() {
        // The exposition-format escapes inside quoted label values:
        // backslash, double quote, and newline. A node name is wire data —
        // a hostile one must not tear or forge sample lines.
        let backslash = to_prometheus_labeled(&snap(), &[("node", "a\\b")]);
        assert!(backslash.contains("node=\"a\\\\b\""));

        let quote = to_prometheus_labeled(&snap(), &[("node", "a\"},evil=\"1")]);
        assert!(quote.contains("node=\"a\\\"},evil=\\\"1\""));

        let newline = to_prometheus_labeled(&snap(), &[("node", "a\nb")]);
        assert!(newline.contains("node=\"a\\nb\""));
        // No sample line is torn: every non-comment line still carries the
        // label, so the raw newline never reached the output.
        for line in newline.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.contains("node=\"a\\nb\""), "torn sample: {line}");
        }

        // All three at once, in the escaping order the code applies.
        let all = to_prometheus_labeled(&snap(), &[("node", "\\\"\n")]);
        assert!(all.contains("node=\"\\\\\\\"\\n\""));
    }
}
