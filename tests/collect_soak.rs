//! The no-wedge soak: 64 concurrent streams, each logging flat out, into a
//! collector whose store is dragged by an artificial write delay. A slow
//! store slows the readers and pushes back through TCP to the nodes; the
//! pin is that this degrades at the source, where the paper records loss,
//! and nowhere else: every sender completes promptly, the collector drops
//! nothing, every event each node's ring refused arrives as its own DROPPED
//! markers (the session's stop seals the last ones) and shows on the scrape
//! endpoint, and the accounting still
//! reconciles exactly — `events_stored + events_dropped == events_received`
//! for every node.

use ktrace::collectd::{node, scrape, Collector, CollectorConfig};
use ktrace::prelude::*;
use ktrace_testutil::TempDir;
use std::time::{Duration, Instant};

const STREAMS: usize = 64;
const EVENTS_PER_STREAM: u64 = 3_000;

/// The sum of one family's samples on a `/metrics` body, or `None` if
/// the family has none.
fn family_total(metrics: &str, family: &str, filter: &str) -> Option<u64> {
    let samples: Vec<u64> = metrics
        .lines()
        .filter(|l| l.starts_with(&format!("{family}{{")) && l.contains(filter))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .collect();
    (!samples.is_empty()).then(|| samples.iter().sum())
}

#[test]
fn sixty_four_lossy_streams_never_wedge_and_always_reconcile() {
    let tmp = TempDir::new("soak");
    let mut config = CollectorConfig::new(tmp.path());
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
    // The wedge check: push-back slows a node's drainer, never stalls it.
    // 64 × 3k events must not take minutes.
    assert!(
        send_elapsed < Duration::from_secs(60),
        "senders took {send_elapsed:?} — the dragged store wedged the sockets"
    );

    // Wait for the readers to store what the sockets still hold.
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

    // Loss is visible where it happened, at the sources, and on the scrape
    // endpoint while the service is still up; the collector lost nothing.
    let live = collector.summary();
    assert_eq!(live.records_dropped(), 0, "{}", live.render());
    // The senders' own count of refused events: flat-out logging overruns
    // the rings.
    let refused: u64 = sent.iter().map(|s| EVENTS_PER_STREAM - s.2).sum();
    assert!(
        refused > 0,
        "flat-out logging was meant to overrun the rings:\n{}",
        live.render()
    );
    let metrics = scrape::fetch(collector.scrape_addr(), "/metrics").unwrap();
    assert_eq!(
        family_total(
            &metrics,
            "ktrace_collectd_records_total",
            "outcome=\"dropped\""
        ),
        Some(0),
        "no drops on /metrics"
    );
    assert_eq!(
        family_total(&metrics, "ktrace_collectd_events_lost_at_source_total", ""),
        Some(refused),
        "source loss surfaces on /metrics"
    );

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
            n.events_lost_at_source,
            EVENTS_PER_STREAM - logged,
            "{name}: the stream's DROPPED markers carry every refusal"
        );
        assert_eq!(
            n.events_stored + n.events_dropped,
            n.events_received,
            "{name}: stored + dropped == received"
        );
    }
}
