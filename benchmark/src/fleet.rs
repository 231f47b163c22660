//! `fleet_ingest`: node bursts into a fresh collector.
//!
//! Per repetition a new `Collector` (default config, a store in scratch) is
//! bound and every connection sends hello + header + its pre-encoded
//! records as fast as TCP takes them. All records together stay within one
//! shard queue's default depth even if every node hashes to one shard, so a
//! drop is impossible by construction and any drop is a regression, not
//! noise. A faster open-loop feed was rejected: its drops depended on the
//! scheduler.

use crate::host;
use crate::mix::Ops;
use crate::run::{ensure, run_reps, timed_setup, Ctx, E2eRun, Rep};
use crate::spans::{Ledger, Spans};
use crate::tracefile::{write_trace, TraceInfo, Until};
use ktrace_collectd::store::{shard_paths, NodeStore};
use ktrace_collectd::{node, Collector, CollectorConfig};
use ktrace_io::TraceFileReader;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Records per burst over all connections: within the default
/// `queue_depth` of 256.
const BURST_RECORDS: u64 = 240;

/// Blocks in the op list the nodes' streams are cut from.
const OP_BLOCKS: usize = 2_600;

/// How long a burst may take to be accounted before the repetition fails.
const SETTLE_LIMIT: Duration = Duration::from_secs(60);

/// One node's pre-encoded stream: the trace header, then whole records.
pub struct NodeFeed {
    name: String,
    wire: Vec<u8>,
    info: TraceInfo,
}

/// One feed per connection; connections never exceed the host's cores.
pub fn setup(seed: u64) -> Vec<NodeFeed> {
    let ops = Ops::generate(seed, OP_BLOCKS);
    let nodes = host::nproc().min(2) as u64;
    (0..nodes)
        .map(|n| {
            let mut wire = Vec::new();
            // Each node starts elsewhere in the list, so the streams differ.
            let start = n as usize * 7_919;
            let until = Until::Records(BURST_RECORDS / nodes);
            let info =
                write_trace(&ops, start, until, 1, &mut wire).expect("encode a node's stream");
            NodeFeed {
                name: format!("node{n}"),
                wire,
                info,
            }
        })
        .collect()
}

/// One burst's readings.
struct Burst {
    /// First connect → every sent record stored or dropped.
    ingest_ns: f64,
    /// Each sender's connect → last byte written.
    sends: Vec<(Instant, Instant)>,
    cpu_ns: f64,
    records_sent: u64,
    events_sent: u64,
    events_stored: u64,
    records_dropped: u64,
    records_received: u64,
    shard_bytes: u64,
    /// The burst's `collectd.ingest` span, when traced.
    ingest_span: Option<u32>,
}

/// Binds a collector on `store`, bursts every feed into it, waits until the
/// burst is accounted, shuts down, and checks both conservation laws.
/// `reopen` also reads every shard back.
fn burst(
    feeds: &[NodeFeed],
    store: &Path,
    reopen: bool,
    spans: Option<&mut Spans>,
) -> Result<Burst, String> {
    let _ = std::fs::remove_dir_all(store);
    let bind0 = Instant::now();
    let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(store))
        .map_err(|e| format!("bind: {e}"))?;
    let bound = Instant::now();
    let addr = collector.local_addr();
    let records_sent: u64 = feeds.iter().map(|f| f.info.records).sum();
    let events_sent: u64 = feeds.iter().map(|f| f.info.data_events).sum();

    let cpu0 = host::process_cpu_ns();
    let t0 = Instant::now();
    let sends: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
        let senders: Vec<_> = feeds
            .iter()
            .map(|feed| {
                scope.spawn(move || -> std::io::Result<(Instant, Instant)> {
                    let begun = Instant::now();
                    let mut conn = node::connect(addr, &feed.name)?;
                    conn.write_all(&feed.wire)?;
                    conn.flush()?;
                    // Dropping the connection is the end of the stream.
                    Ok((begun, Instant::now()))
                })
            })
            .collect();
        senders
            .into_iter()
            .map(|s| {
                s.join()
                    .expect("sender thread")
                    .map_err(|e| format!("send: {e}"))
            })
            .collect::<Result<_, _>>()
    })?;
    let accounted = |c: &Collector| {
        let s = c.summary();
        s.nodes
            .iter()
            .map(|n| n.records_stored + n.records_dropped)
            .sum::<u64>()
    };
    while accounted(&collector) < records_sent {
        if t0.elapsed() > SETTLE_LIMIT {
            return Err(format!(
                "only {} of {records_sent} records accounted after {SETTLE_LIMIT:?}",
                accounted(&collector)
            ));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let t1 = Instant::now();
    let cpu_ns = (host::process_cpu_ns() - cpu0) as f64;
    let summary = collector.shutdown();
    let down = Instant::now();

    let ingest_span = spans.map(|spans| {
        let at = |t: Instant| spans.at(t);
        let (bind0, bound, t0, t1, down) = (at(bind0), at(bound), at(t0), at(t1), at(down));
        let sent: Vec<(u64, u64)> = sends.iter().map(|&(a, b)| (at(a), at(b))).collect();
        spans.add("collectd.bind", bind0, bound);
        let ingest = spans.add("collectd.ingest", t0, t1);
        for &(a, b) in &sent {
            spans.add_child(ingest, "node.send", a, b);
        }
        let last_sent = sent.iter().map(|s| s.1).max().expect("at least one sender");
        spans.add_child(ingest, "collectd.settle", last_sent, t1);
        spans.add("collectd.shutdown", t1, down);
        ingest
    });

    ensure(summary.reconciled(), || {
        format!("fleet does not reconcile:\n{}", summary.render())
    })?;
    let received: u64 = summary.nodes.iter().map(|n| n.records_received).sum();
    ensure(received == records_sent, || {
        format!("collector received {received} of {records_sent} records")
    })?;
    ensure(summary.events_stored() == events_sent, || {
        format!(
            "collector stored {} of {events_sent} events",
            summary.events_stored()
        )
    })?;
    let mut shard_bytes = 0u64;
    for feed in feeds {
        for shard in shard_paths(store, &feed.name) {
            shard_bytes += std::fs::metadata(&shard).map_err(|e| e.to_string())?.len();
            if reopen {
                let reader = TraceFileReader::open(&shard)
                    .map_err(|e| format!("{} does not reopen: {e}", shard.display()))?;
                ensure(reader.record_count() > 0, || {
                    format!("{} is empty", shard.display())
                })?;
            }
        }
    }
    let _ = std::fs::remove_dir_all(store);
    Ok(Burst {
        ingest_ns: (t1 - t0).as_nanos() as f64,
        sends,
        cpu_ns,
        records_sent,
        events_sent,
        events_stored: summary.events_stored(),
        records_dropped: summary.records_dropped(),
        records_received: received,
        shard_bytes,
        ingest_span,
    })
}

impl Burst {
    fn rep(&self) -> Rep {
        let sending: f64 = self
            .sends
            .iter()
            .map(|&(a, b)| (b - a).as_nanos() as f64)
            .sum();
        Rep {
            events: self.events_sent,
            wall_ns: self.ingest_ns,
            // What a node's sending thread spends per event it ships.
            app_ns_per_event: sending / self.events_sent as f64,
            cpu_ns: self.cpu_ns,
            out_bytes: self.shard_bytes,
            out_events: self.events_stored,
            failed: self.events_sent - self.events_stored,
        }
    }
}

pub fn e2e(ctx: &Ctx) -> E2eRun {
    let (feeds, setup_s) = timed_setup(|| setup(ctx.seed));
    let mut run = E2eRun {
        setup_s,
        ..E2eRun::default()
    };
    let store = ctx.scratch.join("store");
    for _ in 0..2 {
        match burst(&feeds, &store, true, None) {
            Ok(b) => {
                run.warmup.0 += b.events_sent;
                run.warmup.1 += b.events_sent - b.events_stored;
            }
            Err(problem) => {
                run.problems.push(format!("warm-up: {problem}"));
                return run;
            }
        }
    }
    let (mut dropped, mut received) = (0u64, 0u64);
    run_reps(ctx.seconds, &mut run, || {
        let b = burst(&feeds, &store, false, None)?;
        dropped += b.records_dropped;
        received += b.records_received;
        Ok(b.rep())
    });
    run.extras.push((
        "collectd.drop_share",
        "ratio",
        dropped as f64 / received.max(1) as f64,
    ));
    run
}

/// The traced run's readings for the collector.
pub struct Traced {
    pub layers: Vec<(&'static str, f64)>,
    pub ledger: Ledger,
}

/// Bursts into a collector under spans, several times when `fleet_ingest`
/// is the workload being traced, and appends to a `NodeStore` directly.
pub fn traced(seed: u64, primary: bool, dir: &Path, spans: &mut Spans) -> Result<Traced, String> {
    let feeds = setup(seed);
    let store = dir.join("store");
    burst(&feeds, &store, true, None)?;
    // Untraced and traced bursts in turn: single bursts swing by a tenth,
    // and in turn both kinds see the same host.
    let bursts = if primary { 10 } else { 2 };
    let (mut ledger, mut all) = (Ledger::default(), Vec::new());
    for _ in 0..bursts {
        let untraced_ns = burst(&feeds, &store, false, None)?.ingest_ns;
        let traced = burst(&feeds, &store, false, Some(spans))?;
        ledger.add_pass(
            spans,
            traced.ingest_span.expect("traced burst"),
            untraced_ns,
        );
        all.push(traced);
    }
    let records: f64 = all.iter().map(|b| b.records_sent as f64).sum();
    let ingest = spans.total("collectd.ingest");
    // Of the burst's wall time, how much the senders sat in `write_all`,
    // averaged over the connections.
    let send_blocked = spans.total("node.send") / feeds.len() as f64 / ingest;
    let dropped: u64 = all.iter().map(|b| b.records_dropped).sum();
    let received: u64 = all.iter().map(|b| b.records_received).sum();

    // The shard write alone, without sockets, queues or threads.
    let feed = &feeds[0];
    let direct = dir.join("direct-store");
    let header = feed.wire[..feed.info.header_len].to_vec();
    let mut node_store = NodeStore::create(&direct, "direct", header, feed.info.record_size, 4096)
        .map_err(|e| format!("node store: {e}"))?;
    for record in feed.wire[feed.info.header_len..].chunks_exact(feed.info.record_size) {
        spans
            .time("collectd.store_append", || node_store.append(record))
            .map_err(|e| format!("append: {e}"))?;
    }
    node_store.finish().map_err(|e| format!("finish: {e}"))?;
    let _ = std::fs::remove_dir_all(&direct);

    let layers = vec![
        ("collectd.ingest_ns_per_record", ingest / records),
        ("collectd.send_blocked_share", send_blocked),
        (
            "collectd.settle_ms",
            spans.total("collectd.settle") / bursts as f64 / 1e6,
        ),
        (
            "collectd.store_append_ns_per_record",
            spans.total("collectd.store_append") / feed.info.records as f64,
        ),
        ("collectd.drop_share", dropped as f64 / received as f64),
    ];
    Ok(Traced { layers, ledger })
}
