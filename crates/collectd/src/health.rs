//! Fleet health, reconstructed from the streams themselves.
//!
//! Each node's session periodically logs `CONTROL`/`HEARTBEAT` events whose
//! payload is a snapshot of the node's own telemetry
//! ([`control::HEARTBEAT_METRICS`]). The collector captures the latest beat
//! per `(node, cpu)` as records arrive, so fleet health needs no side
//! channel: a node's scrape rows are decoded back out of its trace stream
//! ([`TelemetrySnapshot::from_heartbeats`]) and rendered with the same
//! `ktrace-telemetry` exposition the node itself would serve, just with a
//! `node` label in front.
//!
//! Everything here is a **pure read**. The per-node anomaly detector is
//! stepped by the stream (one interval per heartbeat round, in the reader
//! thread — see `NodeHealth`), so how often, or whether, anyone scrapes
//! changes nothing. The collector's own families go through telemetry's one
//! Prometheus writer and label escaper: node names are wire data.

use crate::collector::{NodeSummary, SelfStats, Shared, Verdicts};
use ktrace_format::ids::control;
use ktrace_format::text::json_escape;
use ktrace_telemetry::expo::{label, prom_counters, prom_family};
use ktrace_telemetry::{to_prometheus_labeled, TelemetrySnapshot};
use std::fmt::Write as _;

/// Renders the whole scrape body: collector self-metrics, per-node ingest
/// accounting, per-node detector state, then each node's heartbeat-derived
/// telemetry under a `node` label.
pub(crate) fn render_fleet_metrics(shared: &Shared) -> String {
    let mut out = String::new();
    let own = shared.stats.snapshot();
    let own = [(String::new(), own.rows().map(|(_, v)| v).collect())];
    prom_counters(&mut out, SelfStats::COUNTERS, &own);

    let unlabeled = |v: u64| [(String::new(), v)];

    let nodes = shared.node_states();
    prom_family(
        &mut out,
        "ktrace_collectd_nodes",
        "Nodes that have connected.",
        "gauge",
        &unlabeled(nodes.len() as u64),
    );

    // The outcome families are assembled by hand — folding them into the
    // table would make the table branch on its caller — but through the one
    // writer and the one escaper.
    let summaries: Vec<NodeSummary> = nodes.iter().map(|n| n.summary()).collect();
    let by_outcome = |outcomes: fn(&NodeSummary) -> Vec<(&'static str, u64)>| {
        let mut samples = Vec::new();
        for s in &summaries {
            for (outcome, v) in outcomes(s) {
                let labels = format!("{},{}", label("node", &s.name), label("outcome", outcome));
                samples.push((labels, v));
            }
        }
        samples
    };
    prom_family(
        &mut out,
        "ktrace_collectd_records_total",
        "Records by ingest outcome; stored + dropped == received.",
        "counter",
        &by_outcome(|s| {
            vec![
                ("stored", s.records_stored),
                ("dropped", s.records_dropped),
                ("garbled", s.records_garbled),
            ]
        }),
    );
    prom_family(
        &mut out,
        "ktrace_collectd_events_total",
        "Data events by ingest outcome; stored + dropped == received.",
        "counter",
        &by_outcome(|s| vec![("stored", s.events_stored), ("dropped", s.events_dropped)]),
    );
    let blocks: Vec<(String, Vec<u64>)> = summaries
        .iter()
        .map(|s| (label("node", &s.name), s.rows().map(|(_, v)| v).collect()))
        .collect();
    prom_counters(&mut out, NodeSummary::COUNTERS, &blocks);

    let health: Vec<_> = nodes
        .iter()
        .map(|n| {
            let h = n.health.lock().expect("health lock");
            let beats: Vec<_> = h.beats.values().copied().collect();
            (label("node", &n.name), h.verdicts.clone(), beats)
        })
        .collect();
    let per_node = |value: fn(&Verdicts) -> u64| -> Vec<(String, u64)> {
        health
            .iter()
            .map(|(node, v, _)| (node.clone(), value(v)))
            .collect()
    };
    prom_family(
        &mut out,
        "ktrace_adapt_intervals_total",
        "Anomaly-detector intervals stepped per node (one per heartbeat round).",
        "counter",
        &per_node(|v| v.intervals),
    );
    prom_family(
        &mut out,
        "ktrace_adapt_anomalies_total",
        "Anomaly verdicts fired per node over its lifetime.",
        "counter",
        &per_node(|v| v.anomalies_total),
    );
    let mut scores = Vec::new();
    for (node, v, _) in &health {
        for (i, track) in control::ANOMALY_TRACKS.iter().enumerate() {
            let z = v
                .last
                .iter()
                .find(|a| a.track == i)
                .map_or(0, |a| a.z_milli.max(0));
            scores.push((format!("{node},{}", label("track", track)), z as u64));
        }
    }
    prom_family(
        &mut out,
        "ktrace_adapt_anomaly_score_milli",
        "Robust z-score (milli) of the latest interval per track; 0 = quiet.",
        "gauge",
        &scores,
    );

    for (node, (_, _, beats)) in nodes.iter().zip(&health) {
        if beats.is_empty() {
            continue;
        }
        let snap = TelemetrySnapshot::from_heartbeats(beats);
        out.push_str(&to_prometheus_labeled(&snap, &[("node", &node.name)]));
    }
    out
}

/// Renders the `/anomalies` JSON document: one object per node with the
/// detector's interval/verdict counters and the anomalies (if any) of the
/// latest interval.
pub(crate) fn render_anomalies_json(shared: &Shared) -> String {
    let mut out = String::from("[");
    for (i, node) in shared.node_states().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let v = node.health.lock().expect("health lock").verdicts.clone();
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"intervals\":{},\"anomalies_total\":{},\"anomalous\":{},\"last\":[",
            json_escape(&node.name),
            v.intervals,
            v.anomalies_total,
            !v.last.is_empty(),
        );
        for (j, a) in v.last.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"track\":{},\"name\":\"{}\",\"value\":{},\"z_milli\":{}}}",
                a.track,
                a.track_name(),
                a.value,
                a.z_milli,
            );
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

/// Renders the `/nodes` JSON document: live per-node ingest accounting.
pub(crate) fn render_nodes_json(nodes: &[NodeSummary]) -> String {
    let mut out = String::from("[");
    for (i, s) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{}\"", json_escape(&s.name));
        for (desc, v) in s.rows() {
            let _ = write!(out, ",\"{}\":{v}", desc.name);
        }
        let _ = write!(out, ",\"reconciled\":{}}}", s.reconciled());
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{CollectorConfig, NodeState};
    use std::path::PathBuf;

    /// A HEARTBEAT payload for `cpu` with `drops` cumulative dropped events:
    /// [cpu, logged, masked, dropped, cas, filler, wraps, overwrites,
    ///  sink_records, sink_dropped].
    fn beat(cpu: u64, drops: u64) -> [u64; control::HEARTBEAT_WORDS] {
        [cpu, 1000, 0, drops, 0, 0, 0, 0, 1, 0]
    }

    #[test]
    fn labeled_exposition_carries_the_node() {
        let beats = [[0u64, 10, 0, 0, 0, 0, 0, 0, 1, 0]];
        let snap = TelemetrySnapshot::from_heartbeats(&beats);
        let text = to_prometheus_labeled(&snap, &[("node", "db-1")]);
        assert!(text.contains("ktrace_events_logged_total{node=\"db-1\",cpu=\"0\"} 10"));
    }

    /// The detector plumbing, driven by heartbeat rounds: quiet rounds
    /// observe as healthy, a drop spike fires once its round closes, and
    /// reading the verdict — any number of times — steps nothing.
    #[test]
    fn anomaly_plumbing_fires_on_a_drop_spike() {
        let shared = Shared::new(CollectorConfig::new("unused"));
        let node = shared.node_entry("web-1");
        let verdicts = || node.health.lock().unwrap().verdicts.clone();
        let mut dropped = 0u64;
        // Seed + a dozen quiet rounds (steady trickle of drops). With one
        // CPU, every beat after the first closes the round before it.
        for round in 0..13 {
            dropped += 1;
            node.note_heartbeat(&beat(0, dropped));
            assert_eq!(verdicts().intervals, round);
            assert!(verdicts().last.is_empty(), "quiet round fired");
        }
        // The spike, then the beat that closes its round.
        dropped += 50_000;
        node.note_heartbeat(&beat(0, dropped));
        assert!(
            verdicts().last.is_empty(),
            "the spike's round is still open"
        );
        node.note_heartbeat(&beat(0, dropped + 1));
        for _ in 0..3 {
            let _ = render_fleet_metrics(&shared);
            let json = render_anomalies_json(&shared);
            assert!(json.contains("\"intervals\":14,\"anomalies_total\":1,\"anomalous\":true"));
            assert!(json.contains("\"name\":\"drop_rate\""), "{json}");
        }
        let v = verdicts();
        assert_eq!(v.last.len(), 1, "{:?}", v.last);
        assert_eq!(v.last[0].track_name(), "drop_rate");
        assert_eq!(v.anomalies_total, 1);
        assert_eq!(v.intervals, 14);
    }

    /// `/nodes` for one node with every counter distinct (row `i` holds
    /// `3001 + i`), byte for byte as the hand-written renderer that
    /// preceded the counter table wrote it. Regenerate after an intentional
    /// change with `KTRACE_BLESS=1 cargo test -p ktrace-collectd nodes_json`.
    #[test]
    fn nodes_json_matches_the_committed_fixture() {
        let mut s = NodeState::new("web-1").summary();
        for (i, (_, v)) in s.rows_mut().enumerate() {
            *v = 3001 + i as u64;
        }
        let rendered = render_nodes_json(&[s]);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/nodes.json");
        if std::env::var("KTRACE_BLESS").is_ok() {
            std::fs::write(&path, &rendered).expect("write fixture");
            return;
        }
        let expected = std::fs::read_to_string(&path)
            .expect("fixture missing: run with KTRACE_BLESS=1 to create it");
        assert_eq!(
            rendered, expected,
            "/nodes drifted from the committed fixture"
        );
    }

    /// A node name is wire data. Every collector family now goes through
    /// telemetry's escaper, so a hostile name can neither tear a sample
    /// line nor forge a label — in `/metrics` or in the JSON documents.
    #[test]
    fn hostile_node_names_cannot_tear_or_forge_samples() {
        let hostile = "a\"} 1\nevil{x=\"\\";
        let shared = Shared::new(CollectorConfig::new("unused"));
        let node = shared.node_entry(hostile);
        node.note_heartbeat(&beat(0, 0));

        let escaped = label("node", hostile);
        assert_eq!(escaped, "node=\"a\\\"} 1\\nevil{x=\\\"\\\\\"");
        let text = render_fleet_metrics(&shared);
        let mut labeled = 0;
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if line.starts_with("ktrace_collectd_connections")
                || line.starts_with("ktrace_collectd_scrapes")
                || line.starts_with("ktrace_collectd_nodes ")
            {
                continue;
            }
            assert!(
                line.contains(&format!("{{{escaped}")),
                "torn or forged sample: {line}"
            );
            labeled += 1;
        }
        // 3 + 2 outcome samples, 5 table families, 2 + 4 adapt samples, and
        // the node's own telemetry below them.
        assert!(labeled > 15, "{text}");
        assert!(text.contains(&format!(
            "ktrace_collectd_records_total{{{escaped},outcome=\"garbled\"}} 0"
        )));

        let quoted = format!("\"name\":\"{}\"", json_escape(hostile));
        assert!(render_nodes_json(&shared.summaries()).contains(&quoted));
        assert!(render_anomalies_json(&shared).contains(&quoted));
    }
}
