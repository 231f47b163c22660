//! The no-wedge soak: 64 concurrent streams into a collector deliberately
//! configured to lose — two store workers dragged by an artificial write
//! delay behind depth-2 queues. The pin is the degrade-don't-wedge
//! contract: every sender completes promptly, overflow shows up as counted
//! drops (visible on the scrape endpoint), and the accounting still
//! reconciles exactly — `events_stored + events_dropped == events_received`
//! for every node.

use ktrace::collectd::{node, scrape, Collector, CollectorConfig};
use ktrace::prelude::*;
use ktrace_testutil::TempDir;
use std::time::{Duration, Instant};

const STREAMS: usize = 64;
const EVENTS_PER_STREAM: u64 = 3_000;

#[test]
fn sixty_four_lossy_streams_never_wedge_and_always_reconcile() {
    let tmp = TempDir::new("soak");
    let mut config = CollectorConfig::new(tmp.path());
    config.shards = 2;
    config.queue_depth = 2;
    config.records_per_shard = 8;
    config.store_write_delay = Some(Duration::from_millis(2));
    let collector = Collector::bind("127.0.0.1:0", config).unwrap();
    let addr = collector.local_addr();

    let started = Instant::now();
    let senders: Vec<_> = (0..STREAMS)
        .map(|i| {
            std::thread::spawn(move || {
                let name = format!("soak-{i:02}");
                let conn = node::connect(addr, &name).expect("connect");
                let session = TraceSession::builder()
                    .geometry(TraceConfig::small())
                    .ncpus(1)
                    .start(conn)
                    .expect("session");
                let h = session.logger().handle(0).expect("cpu 0");
                let mut logged = 0u64;
                for n in 0..EVENTS_PER_STREAM {
                    if h.log_slice(MajorId::TEST, 1, &[n, n ^ 0x5A]) {
                        logged += 1;
                    }
                }
                let stats = session.finish();
                assert!(stats.lossless(), "{name}: {stats:?}");
                (name, stats.records_written, logged)
            })
        })
        .collect();

    let sent: Vec<(String, u64, u64)> = senders.into_iter().map(|s| s.join().unwrap()).collect();
    let send_elapsed = started.elapsed();
    // The wedge check: senders finish on the senders' schedule, not the
    // dragged store's. 64 × 3k events must not take minutes.
    assert!(
        send_elapsed < Duration::from_secs(60),
        "senders took {send_elapsed:?} — backpressure reached the sockets"
    );

    // Wait for the queues (depth 2, so nearly nothing buffered) to drain.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let s = collector.summary();
        let drained = s.nodes.len() == STREAMS
            && s.nodes
                .iter()
                .all(|n| n.live_connections == 0 && n.reconciled());
        if drained {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "store never drained: {}",
            s.render()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Overflow is visible as counted drops on the scrape endpoint while the
    // service is still up.
    let live = collector.summary();
    assert!(
        live.records_dropped() > 0,
        "the drag was configured to force drops:\n{}",
        live.render()
    );
    let metrics = scrape::fetch(collector.scrape_addr(), "/metrics").unwrap();
    let dropped_on_scrape: u64 = metrics
        .lines()
        .filter(|l| {
            l.starts_with("ktrace_collectd_records_total{") && l.contains("outcome=\"dropped\"")
        })
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert!(dropped_on_scrape > 0, "drops surface on /metrics");

    let summary = collector.shutdown();
    assert!(summary.reconciled(), "{}", summary.render());
    assert_eq!(summary.nodes.len(), STREAMS);
    for (name, records, logged) in &sent {
        let n = summary.node(name).expect("node registered");
        assert_eq!(
            n.records_received, *records,
            "{name}: every record crossed the wire"
        );
        assert_eq!(n.events_received, *logged, "{name}: exact event accounting");
        assert_eq!(
            n.events_stored + n.events_dropped,
            n.events_received,
            "{name}: stored + dropped == received"
        );
    }
}
