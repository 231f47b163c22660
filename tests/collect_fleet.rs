//! Fleet collection end to end: many concurrent ossim nodes streaming into
//! one collector, one node killed mid-stream, and the merged view still
//! reconciling exactly — every event sent is stored, the dead node's
//! partial stream salvages cleanly, and the `props/ktrace.toml` assertions
//! answer identically whether they read the store ([`CollectSource`]) or an
//! equivalent local file.

use ktrace::collectd::{node, scrape, CollectSource, Collector, CollectorConfig};
use ktrace::faults::{FaultySink, SinkPlan};
use ktrace::ossim::{CrashPlan, CrashTracer, KTracer, NodeSpec};
use ktrace::prelude::*;
use ktrace_testutil::{assert_salvage_matches_strict, TempDir};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 8;

fn wait_for_drain(collector: &Collector, name: &str, records: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if collector.summary().node(name).is_some_and(|n| {
            n.records_stored + n.records_dropped >= records && n.live_connections == 0
        }) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "collector never drained {records} records for {name}: {:?}",
            collector.summary().node(name)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_fleet_reconciles_with_a_node_dying_mid_stream() {
    let tmp = TempDir::new("fleet");
    let mut config = CollectorConfig::new(tmp.path());
    config.records_per_shard = 16;
    let collector = Collector::bind("127.0.0.1:0", config).unwrap();
    let addr = collector.local_addr();

    // Eight healthy ossim nodes stream concurrently.
    let workers: Vec<_> = (0..NODES)
        .map(|i| {
            let name = format!("node-{i}");
            std::thread::spawn(move || {
                let spec = NodeSpec::new(&name, 2);
                let report = node::run_ossim_node(addr, &spec, Some(Duration::from_millis(5)))
                    .expect("node run");
                assert!(report.session.lossless(), "{name}: {:?}", report.session);
                (name, report)
            })
        })
        .collect();

    // One node's sink dies mid-stream: CrashTracer kills a CPU's logging
    // and FaultySink cuts the wire after a byte budget — the worst case the
    // paper's §3.1 commit counts are designed for. The budget is the ~3 KiB
    // header plus four 1 KiB records, half of the least this workload ever
    // writes (~16 KiB), so the cut is certain and some records precede it.
    let dying = std::thread::spawn(move || {
        let conn = node::connect(addr, "dying-node").expect("connect");
        let session = TraceSession::builder()
            .geometry(TraceConfig::small())
            .ncpus(2)
            .register(ktrace::events::register_all)
            .start(FaultySink::new(
                conn,
                SinkPlan::permanent_failure(0xDEAD, 8 * 1024),
            ))
            .expect("session");
        let tracer = Arc::new(CrashTracer::new(
            session.logger().clone(),
            CrashPlan::new(1, 400),
        ));
        NodeSpec::new("dying-node", 2).run(tracer);
        session.finish() // not lossless: the sink is gone
    });

    let reports: Vec<(String, node::NodeReport)> =
        workers.into_iter().map(|w| w.join().unwrap()).collect();
    let dying_stats = dying.join().unwrap();
    assert!(
        !dying_stats.lossless(),
        "the dying node really lost its sink: {dying_stats:?}"
    );

    for (name, report) in &reports {
        wait_for_drain(&collector, name, report.session.records_written);
    }

    // The scrape endpoint serves per-node health while the service runs.
    let metrics = scrape::fetch(collector.scrape_addr(), "/metrics").unwrap();
    assert!(metrics.contains("ktrace_collectd_records_total{node=\"node-0\",outcome=\"stored\"}"));
    assert!(metrics.contains("ktrace_events_logged_total{node=\"node-0\",cpu=\"0\"}"));
    let nodes_json = scrape::fetch(collector.scrape_addr(), "/nodes").unwrap();
    assert!(nodes_json.contains("\"name\":\"dying-node\""));

    let summary = collector.shutdown();
    assert!(summary.reconciled(), "{}", summary.render());
    assert_eq!(summary.nodes.len(), NODES + 1);

    // Healthy nodes: everything the session shipped arrived, and every record
    // that arrived was stored. The collector drops a record only when its
    // store fails; a slow store pushes back to the node instead.
    for (name, report) in &reports {
        let n = summary.node(name).expect("node registered");
        assert_eq!(n.records_received, report.session.records_written);
        assert_eq!(n.records_dropped, 0, "{name}: {n:?}");
        assert_eq!(n.records_stored, n.records_received, "{name} conservation");
        assert!(n.heartbeats_seen > 0, "{name} heartbeats rode the stream");
    }

    // The dying node: whatever made it across reconciles, and every shard
    // it left behind is salvageable with no disagreement against the strict
    // reader — a partial stream is still §3.1-recoverable data.
    let d = summary.node("dying-node").expect("dying node registered");
    assert!(d.records_received > 0, "some records landed before the cut");
    assert!(d.records_received < dying_stats.records_written + dying_stats.buffers_dropped);
    for shard in ktrace::collectd::store::shard_paths(tmp.path(), "dying-node") {
        let bytes = std::fs::read(&shard).unwrap();
        assert_salvage_matches_strict(&bytes);
    }

    // Fleet-wide merged view sees every stored data event, normalized.
    let mut fleet = CollectSource::open(tmp.path());
    let set = fleet.load().unwrap();
    assert_eq!(set.data_events().count() as u64, summary.events_stored());
    assert!(
        set.events.windows(2).all(|w| w[0].time <= w[1].time),
        "canonical order"
    );
}

/// The parity pin: identical bytes through the wire and into a local
/// file; `props/ktrace.toml` must answer identically over both.
#[test]
fn store_and_file_sources_agree_assertion_by_assertion() {
    let tmp = TempDir::new("fleet-parity2");
    let store = tmp.file("store");
    let file_path = tmp.file("parity.ktrace");
    let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(&store)).unwrap();

    struct TeeFile {
        wire: TcpStream,
        file: std::fs::File,
    }
    impl std::io::Write for TeeFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.wire.write_all(buf)?;
            self.file.write_all(buf)?;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.wire.flush()?;
            self.file.flush()
        }
    }

    let conn = node::connect(collector.local_addr(), "parity").unwrap();
    let session = TraceSession::builder()
        .geometry(TraceConfig::small())
        .ncpus(2)
        .register(ktrace::events::register_all)
        .heartbeat(Duration::from_millis(2))
        .start(TeeFile {
            wire: conn,
            file: std::fs::File::create(&file_path).unwrap(),
        })
        .unwrap();
    let tracer = Arc::new(KTracer::new(session.logger().clone()));
    NodeSpec::new("parity", 2).run(tracer);
    let stats = session.finish();
    assert!(stats.lossless(), "{stats:?}");
    wait_for_drain(&collector, "parity", stats.records_written);
    let summary = collector.shutdown();
    assert!(summary.node("parity").unwrap().lossless());

    // The pin: the store answers every assertion exactly as the file does —
    // same violations, same counts, same exit code. (Whether the run itself
    // is clean depends on drain timing; either way the sources must agree.)
    let spec = Spec::from_file("props/ktrace.toml").expect("load spec");
    let mut file_src = FileSource::new(&file_path);
    let mut store_src = CollectSource::node(&store, "parity");
    let file_report = spec.check(&Query::over(&mut file_src).unwrap());
    let store_report = spec.check(&Query::over(&mut store_src).unwrap());
    assert_eq!(
        format!("{file_report:?}"),
        format!("{store_report:?}"),
        "store must answer the spec identically to the file"
    );
    assert_eq!(file_report.exit_code(), store_report.exit_code());
}
