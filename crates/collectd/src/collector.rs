//! The aggregation service: accept, account, store.
//!
//! One reader thread per connection parses the stream into whole records,
//! tallies each in place and appends it to its node's store itself. There
//! is no queue between the wire and the disk: a slow store slows the
//! reader, the reader stops draining the socket, and TCP pushes back to the
//! node's drainer. The node's ring then overruns and writes the loss into
//! the stream as `DROPPED` markers, as the paper's does (§3.1) — so the one
//! place events are lost is the one place that records it, and the
//! collector reports that loss per node (`events_lost_at_source`) from the
//! markers it reads. The push-back is bounded at the node: a store that
//! never progresses stops its reader, the node's socket writes time out
//! ([`node::SEND_TIMEOUT`](crate::node::SEND_TIMEOUT)), and the session
//! declares its sink dead and counts what it could not ship, so `finish()`
//! still returns.
//!
//! Exact accounting is the invariant everything else leans on: every
//! well-formed record's data events land in exactly one of *stored* or
//! *dropped*, and the collector drops a record only when the store fails,
//! so `events_stored + events_dropped == events_received` holds per node at
//! all times — the reconciliation the fleet tests pin.

use crate::proto;
use crate::scrape;
use crate::store::NodeStore;
use ktrace_adapt::{Anomaly, Detector};
use ktrace_core::walk_buffer;
use ktrace_format::ids::control;
use ktrace_format::protocol::{ExactCounter, SignalFlag};
use ktrace_io::file::{body_words, frame_record};
use ktrace_io::FileHeader;
use ktrace_telemetry::{counter_block, TelemetrySnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Socket read timeout — the cadence at which reader threads notice a
/// shutdown request.
const READ_TIMEOUT: Duration = Duration::from_millis(25);

/// Collector tuning. A reader appends to its node's store itself, so there
/// is no queue to size: a slow store pushes back to the node, whose ring
/// records the loss.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Root of the on-disk store (`<store>/<node>/shard-NNNN.ktrace`).
    pub store_dir: PathBuf,
    /// Records per shard file before rolling to the next.
    pub records_per_shard: u64,
    /// Artificial per-record store latency. A test drill: drags every
    /// append so the push-back path is exercised.
    pub store_write_delay: Option<Duration>,
}

impl CollectorConfig {
    /// Defaults rooted at `store_dir`: 4096-record shard files.
    pub fn new(store_dir: impl Into<PathBuf>) -> CollectorConfig {
        CollectorConfig {
            store_dir: store_dir.into(),
            records_per_shard: 4096,
            store_write_delay: None,
        }
    }
}

/// Why the collector could not start.
#[derive(Debug)]
pub enum CollectError {
    /// The listen or scrape socket could not be bound.
    Bind(std::io::Error),
    /// The store directory could not be created.
    Store(std::io::Error),
}

impl std::fmt::Display for CollectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectError::Bind(e) => write!(f, "cannot bind collector socket: {e}"),
            CollectError::Store(e) => write!(f, "cannot create collector store: {e}"),
        }
    }
}

impl std::error::Error for CollectError {}

impl CollectError {
    /// The shared-table exit code for this failure
    /// ([`exit::COLLECT_BIND`](crate::exit::COLLECT_BIND) /
    /// [`exit::COLLECT_STORE`](crate::exit::COLLECT_STORE)).
    pub fn exit_code(&self) -> u8 {
        match self {
            CollectError::Bind(_) => crate::exit::COLLECT_BIND,
            CollectError::Store(_) => crate::exit::COLLECT_STORE,
        }
    }
}

counter_block! {
    /// Live per-node ingest accounting, shared between the node's reader
    /// threads, the scrape endpoint, and summaries. Plain counters under
    /// relaxed ordering: every value is a statistic.
    #[derive(Default)]
    pub(crate) struct NodeCounters;
    /// Final (or live) accounting for one node.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NodeSummary {
        /// The node's wire name.
        pub name: String,
    }
    counters {
        records_received: ExactCounter = "Well-formed records read off the wire.";
        records_stored: ExactCounter = "Records written into the store.";
        records_dropped: ExactCounter =
            "Records dropped because the store failed to take them.";
        records_garbled: ExactCounter =
            "Records abandoned because the stream desynced (bad record magic).";
        events_received: ExactCounter = "Data events inside received records.";
        events_stored: ExactCounter = "Data events inside stored records.";
        events_dropped: ExactCounter = "Data events inside dropped records.";
        bytes_received: ExactCounter = "Record bytes received per node."
            => "ktrace_collectd_bytes_received_total";
        torn_tail_bytes: ExactCounter = "Bytes of partial final records cut off by dead connections."
            => "ktrace_collectd_torn_tail_bytes_total";
        connects: ExactCounter = "Connections this node has opened.";
        live_connections: ExactCounter = "Connections currently open per node."
            => "ktrace_collectd_live_connections";
        heartbeats_seen: ExactCounter = "HEARTBEAT events observed in each node's stream."
            => "ktrace_collectd_heartbeats_seen_total";
        events_lost_at_source: ExactCounter =
            "Data events the node's own ring dropped to overrun, summed from the DROPPED markers in its stream."
            => "ktrace_collectd_events_lost_at_source_total";
    }
    histograms {}
    totals { FleetSummary.nodes }
}

impl NodeCounters {
    /// One well-formed record of `bytes` bytes read off the wire, with the
    /// data events inside it.
    fn tally_received(&self, events: u64, bytes: u64) {
        self.records_received.add(1);
        self.events_received.add(events);
        self.bytes_received.add(bytes);
    }

    /// One record, and the data events inside it, written into the store.
    fn tally_stored(&self, events: u64) {
        self.records_stored.add(1);
        self.events_stored.add(events);
    }

    /// One record, and the data events inside it, dropped because the store
    /// failed to take it.
    fn tally_dropped(&self, events: u64) {
        self.records_dropped.add(1);
        self.events_dropped.add(events);
    }
}

/// One node, as every collector thread sees it.
pub(crate) struct NodeState {
    pub(crate) name: String,
    counters: NodeCounters,
    /// The node's on-disk store, opened by the first record to arrive. One
    /// lock: every connection under this name appends through it, in
    /// arrival order.
    store: Mutex<Option<NodeStore>>,
    /// What the node's own HEARTBEATs say about it. One lock: the beat that
    /// closes a round steps the detector over the beats it holds.
    pub(crate) health: Mutex<NodeHealth>,
}

/// A node's health as rebuilt from its stream: the latest beats, and an
/// anomaly detector **stepped by the stream** — once per heartbeat round,
/// never by a scrape, so observing the fleet cannot change what it does.
#[derive(Default)]
pub(crate) struct NodeHealth {
    /// Latest HEARTBEAT payload per CPU, as logged by the node itself.
    pub(crate) beats: BTreeMap<usize, [u64; control::HEARTBEAT_WORDS]>,
    /// CPUs that have reported since the detector last stepped.
    round: BTreeSet<usize>,
    detector: Detector,
    pub(crate) verdicts: Verdicts,
}

/// What the detector has concluded so far; the scrape endpoints copy this.
#[derive(Clone, Default)]
pub(crate) struct Verdicts {
    /// Anomalies fired by the most recent interval.
    pub(crate) last: Vec<Anomaly>,
    /// Detector intervals stepped so far.
    pub(crate) intervals: u64,
    /// Anomaly verdicts fired over the node's lifetime.
    pub(crate) anomalies_total: u64,
}

impl NodeHealth {
    /// Records one beat. A CPU reporting for the second time since the last
    /// step closes the round: the detector steps one interval over the
    /// snapshot the held beats rebuild, and the new beat opens the next
    /// round. (So a node that never beats is never stepped, and the round
    /// still open when a stream ends is not.)
    fn note_beat(&mut self, words: [u64; control::HEARTBEAT_WORDS]) {
        let cpu = words[0] as usize;
        if !self.round.insert(cpu) {
            let beats: Vec<_> = self.beats.values().copied().collect();
            let fired = self
                .detector
                .observe(&TelemetrySnapshot::from_heartbeats(&beats));
            self.verdicts.intervals += 1;
            self.verdicts.anomalies_total += fired.len() as u64;
            self.verdicts.last = fired;
            self.round = BTreeSet::from([cpu]);
        }
        self.beats.insert(cpu, words);
    }
}

impl NodeState {
    pub(crate) fn new(name: &str) -> NodeState {
        NodeState {
            name: name.to_string(),
            counters: NodeCounters::new(),
            store: Mutex::new(None),
            health: Mutex::new(NodeHealth::default()),
        }
    }

    /// Appends one record to the node's store and counts it stored, or
    /// dropped if the store fails. A connection whose record size differs
    /// from the open store's gets a fresh store (shard numbering continues;
    /// every shard is self-describing).
    fn store_record(&self, config: &CollectorConfig, header: &[u8], record: &[u8], events: u64) {
        let mut store = self.store.lock().expect("store lock");
        if let Some(delay) = config.store_write_delay {
            std::thread::sleep(delay);
        }
        // `append` flushes every record, so a store is closed by dropping it.
        *store = store
            .take()
            .filter(|s| s.record_size() == record.len())
            .or_else(|| {
                NodeStore::create(
                    &config.store_dir,
                    &self.name,
                    header.to_vec(),
                    record.len(),
                    config.records_per_shard,
                )
                .ok()
            });
        match store.as_mut().map(|s| s.append(record)) {
            Some(Ok(())) => self.counters.tally_stored(events),
            _ => self.counters.tally_dropped(events),
        }
    }

    pub(crate) fn note_heartbeat(&self, payload: &[u64]) {
        let Ok(words) = <[u64; control::HEARTBEAT_WORDS]>::try_from(payload) else {
            return;
        };
        self.counters.heartbeats_seen.add(1);
        self.health.lock().expect("health lock").note_beat(words);
    }

    pub(crate) fn summary(&self) -> NodeSummary {
        self.counters.snapshot(self.name.clone())
    }
}

counter_block! {
    /// The collector's own self-metrics.
    pub(crate) struct SelfCounters;
    /// Plain-data copy of the collector's self-metrics.
    #[derive(Clone)]
    pub(crate) struct SelfStats {}
    counters {
        connections_accepted: ExactCounter = "Connections accepted by the collector."
            => "ktrace_collectd_connections_accepted_total";
        connections_rejected: ExactCounter = "Connections dropped before a valid hello and header."
            => "ktrace_collectd_connections_rejected_total";
        scrapes_served: ExactCounter = "Scrape requests served."
            => "ktrace_collectd_scrapes_served_total";
    }
    histograms {}
    totals {}
}

impl SelfCounters {
    /// One `/metrics` request served.
    pub(crate) fn tally_scrape(&self) {
        self.scrapes_served.add(1);
    }
}

/// State shared by every collector thread.
pub(crate) struct Shared {
    pub(crate) config: CollectorConfig,
    pub(crate) stop: SignalFlag,
    pub(crate) nodes: Mutex<BTreeMap<String, Arc<NodeState>>>,
    pub(crate) stats: SelfCounters,
}

impl Shared {
    pub(crate) fn new(config: CollectorConfig) -> Shared {
        Shared {
            config,
            stop: SignalFlag::new(),
            nodes: Mutex::new(BTreeMap::new()),
            stats: SelfCounters::new(),
        }
    }

    pub(crate) fn node_entry(&self, name: &str) -> Arc<NodeState> {
        let mut nodes = self.nodes.lock().expect("nodes lock");
        nodes
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(NodeState::new(name)))
            .clone()
    }

    pub(crate) fn node_states(&self) -> Vec<Arc<NodeState>> {
        self.nodes
            .lock()
            .expect("nodes lock")
            .values()
            .cloned()
            .collect()
    }

    /// Live per-node accounting, name-sorted.
    pub(crate) fn summaries(&self) -> Vec<NodeSummary> {
        self.node_states().iter().map(|n| n.summary()).collect()
    }
}

impl NodeSummary {
    /// The conservation law: every received event was stored or counted as
    /// dropped.
    pub fn reconciled(&self) -> bool {
        self.events_stored + self.events_dropped == self.events_received
            && self.records_stored + self.records_dropped == self.records_received
    }

    /// True if the collector dropped, tore or garbled nothing. (What the
    /// node's own ring lost is `events_lost_at_source`.)
    pub fn lossless(&self) -> bool {
        self.records_dropped == 0 && self.records_garbled == 0 && self.torn_tail_bytes == 0
    }
}

/// Fleet-wide accounting, from [`Collector::summary`] or
/// [`Collector::shutdown`]. Every per-node counter has a fleet total of the
/// same name (`records_dropped()`, `events_stored()`, …).
#[derive(Debug, Clone, Default)]
pub struct FleetSummary {
    /// Per-node accounting, name-sorted.
    pub nodes: Vec<NodeSummary>,
}

impl FleetSummary {
    /// The named node's summary.
    pub fn node(&self, name: &str) -> Option<&NodeSummary> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// True if every node's accounting reconciles (see
    /// [`NodeSummary::reconciled`]).
    pub fn reconciled(&self) -> bool {
        self.nodes.iter().all(|n| n.reconciled())
    }

    /// A one-line-per-node table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:>9} {:>9} {:>8} {:>10} {:>10} {:>9} {:>10} {:>6}",
            "node",
            "records",
            "stored",
            "dropped",
            "events",
            "ev-stored",
            "ev-drop",
            "src-lost",
            "beats"
        );
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "{:<20} {:>9} {:>9} {:>8} {:>10} {:>10} {:>9} {:>10} {:>6}{}",
                n.name,
                n.records_received,
                n.records_stored,
                n.records_dropped,
                n.events_received,
                n.events_stored,
                n.events_dropped,
                n.events_lost_at_source,
                n.heartbeats_seen,
                if n.torn_tail_bytes > 0 {
                    format!("  (torn tail: {} B)", n.torn_tail_bytes)
                } else {
                    String::new()
                }
            );
        }
        out
    }
}

/// A `Read` over a timeout-bearing socket that turns a shutdown request
/// into EOF: transient timeouts loop, unless `stop` is set, in which case
/// the reader sees a clean end-of-stream and unwinds. This is what makes
/// "the collector never wedges" a structural property — every blocking read
/// has a bounded wait and a stop check.
struct PatientReader<'a> {
    conn: &'a TcpStream,
    stop: &'a SignalFlag,
}

impl Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.conn.read(buf) {
                Ok(n) => return Ok(n),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    if self.stop.is_raised() {
                        return Ok(0);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Reads as much of `buf` as the stream yields before EOF. `Ok(n)` with
/// `n < buf.len()` is a torn tail.
fn read_up_to(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut at = 0;
    while at < buf.len() {
        match r.read(&mut buf[at..]) {
            Ok(0) => break,
            Ok(n) => at += n,
            Err(e) => return Err(e),
        }
    }
    Ok(at)
}

/// What the reader thread takes from a record, in place, up to the first
/// garble (what a reader of the stored record will decode): the number of
/// data events in it and the events its `DROPPED` markers say the node's
/// ring lost, with every HEARTBEAT's payload handed to `on_heartbeat`.
fn tally_record(words: &[u64], mut on_heartbeat: impl FnMut(&[u64])) -> (u64, u64) {
    let (mut data_events, mut lost) = (0, 0);
    for e in walk_buffer(words, None) {
        if !e.is_control() {
            data_events += 1;
        } else if e.minor == control::HEARTBEAT {
            on_heartbeat(e.payload);
        } else if e.minor == control::DROPPED {
            lost += e.payload.first().copied().unwrap_or(0);
        }
    }
    (data_events, lost)
}

/// One connection, hello to EOF: each record is framed, tallied and
/// appended to the node's store before the next is read.
fn serve_connection(conn: TcpStream, shared: &Shared) {
    let mut r = PatientReader {
        conn: &conn,
        stop: &shared.stop,
    };
    let (name, header_bytes) = match proto::read_hello(&mut r)
        .and_then(|name| proto::read_header_bytes(&mut r).map(|h| (name, h)))
    {
        Ok(v) => v,
        Err(_) => {
            shared.stats.connections_rejected.add(1);
            return;
        }
    };
    let Ok((header, _)) = FileHeader::decode(&header_bytes) else {
        shared.stats.connections_rejected.add(1);
        return;
    };
    let record_size = header.record_size();
    let node = shared.node_entry(&name);
    node.counters.connects.add(1);
    node.counters.live_connections.add(1);

    let mut buf = vec![0u8; record_size];
    let mut words: Vec<u64> = Vec::new();
    while let Ok(got) = read_up_to(&mut r, &mut buf) {
        if got == 0 {
            break; // clean EOF (or shutdown)
        }
        if got < record_size {
            node.counters.torn_tail_bytes.add(got as u64);
            break;
        }
        let Ok(frame) = frame_record(&buf) else {
            // Desynced: without record alignment nothing downstream is
            // trustworthy. Abandon the connection, visibly.
            node.counters.records_garbled.add(1);
            break;
        };
        // Walk once, here: exact event accounting, the source's own loss,
        // and heartbeat capture for health, whatever the store decides.
        words.clear();
        words.extend(body_words(frame.body));
        let (data_events, lost) = tally_record(&words, |beat| node.note_heartbeat(beat));
        node.counters.tally_received(data_events, got as u64);
        node.counters.events_lost_at_source.add(lost);
        node.store_record(&shared.config, &header_bytes, &buf, data_events);
    }
    node.counters.live_connections.sub(1);
}

/// The running aggregation service: an acceptor, a scrape thread, and one
/// reader per connection that appends its node's records to the store.
/// Dropping it (or calling [`shutdown`](Collector::shutdown)) stops every
/// thread; no read ever blocks without a stop check, and a store append is
/// one record long, so teardown is prompt even with nodes mid-stream.
pub struct Collector {
    shared: Arc<Shared>,
    addr: SocketAddr,
    scrape_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    scraper: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Collector {
    /// Binds the ingest socket at `addr` (plus a loopback scrape socket on
    /// an ephemeral port) and starts the service.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: CollectorConfig,
    ) -> Result<Collector, CollectError> {
        std::fs::create_dir_all(&config.store_dir).map_err(CollectError::Store)?;
        let listener = TcpListener::bind(addr).map_err(CollectError::Bind)?;
        listener.set_nonblocking(true).map_err(CollectError::Bind)?;
        let local = listener.local_addr().map_err(CollectError::Bind)?;
        let scrape_listener = TcpListener::bind("127.0.0.1:0").map_err(CollectError::Bind)?;
        let scrape_addr = scrape_listener.local_addr().map_err(CollectError::Bind)?;

        let shared = Arc::new(Shared::new(config));

        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared2 = shared.clone();
            let readers2 = readers.clone();
            std::thread::Builder::new()
                .name("collectd-accept".into())
                .spawn(move || {
                    while !shared2.stop.is_raised() {
                        match listener.accept() {
                            Ok((conn, _peer)) => {
                                shared2.stats.connections_accepted.add(1);
                                let _ = conn.set_nonblocking(false);
                                let _ = conn.set_read_timeout(Some(READ_TIMEOUT));
                                let shared3 = shared2.clone();
                                let handle = std::thread::Builder::new()
                                    .name("collectd-reader".into())
                                    .spawn(move || serve_connection(conn, &shared3))
                                    .expect("spawn reader");
                                readers2.lock().expect("readers lock").push(handle);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(2)),
                        }
                    }
                })
                .expect("spawn acceptor")
        };

        let scraper = {
            let shared2 = shared.clone();
            std::thread::Builder::new()
                .name("collectd-scrape".into())
                .spawn(move || scrape::scrape_loop(scrape_listener, &shared2))
                .expect("spawn scraper")
        };

        Ok(Collector {
            shared,
            addr: local,
            scrape_addr,
            acceptor: Some(acceptor),
            scraper: Some(scraper),
            readers,
        })
    }

    /// The ingest address nodes connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The HTTP scrape address (`GET /metrics`, `GET /nodes`).
    pub fn scrape_addr(&self) -> SocketAddr {
        self.scrape_addr
    }

    /// A live fleet snapshot.
    pub fn summary(&self) -> FleetSummary {
        FleetSummary {
            nodes: self.shared.summaries(),
        }
    }

    /// Stops accepting, unwinds every reader, flushes every shard, and
    /// returns the final accounting.
    pub fn shutdown(mut self) -> FleetSummary {
        self.stop_threads();
        self.summary()
    }

    fn stop_threads(&mut self) {
        self.shared.stop.raise();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.scraper.take() {
            let _ = h.join();
        }
        let readers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.readers.lock().expect("readers lock"));
        for h in readers {
            let _ = h.join();
        }
        // `append` flushes every record, so a store is closed by dropping it.
        for node in self.shared.node_states() {
            node.store.lock().expect("store lock").take();
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node;
    use ktrace_core::TraceConfig;
    use ktrace_format::MajorId;
    use ktrace_io::{TraceFileReader, TraceSession};
    use ktrace_testutil::TempDir;

    #[test]
    fn one_node_round_trips_through_the_store() {
        let tmp = TempDir::new("collect-one");
        let mut config = CollectorConfig::new(tmp.path());
        config.records_per_shard = 4;
        let collector = Collector::bind("127.0.0.1:0", config).unwrap();

        let sink = node::connect(collector.local_addr(), "solo").unwrap();
        let session = TraceSession::builder()
            .geometry(TraceConfig::small())
            .ncpus(2)
            .start(sink)
            .unwrap();
        let mut logged = 0u64;
        for i in 0..2_000u64 {
            for cpu in 0..2 {
                if session.logger().handle(cpu).unwrap().log_slice(
                    MajorId::TEST,
                    cpu as u16,
                    &[i, i],
                ) {
                    logged += 1;
                }
            }
        }
        let stats = session.finish();
        assert!(stats.lossless(), "{stats:?}");

        let summary = wait_for_drain(&collector, "solo", stats.records_written);
        let n = summary.node("solo").expect("node registered");
        assert!(n.reconciled(), "{n:?}");
        assert!(n.lossless(), "{n:?}");
        assert_eq!(n.records_received, stats.records_written);
        assert_eq!(n.events_received, logged);
        assert_eq!(n.events_stored, logged);
        drop(summary);
        let final_summary = collector.shutdown();
        assert!(final_summary.reconciled());

        // The store is a sequence of valid, strictly readable trace files.
        let shards = crate::store::shard_paths(tmp.path(), "solo");
        assert!(shards.len() > 1, "rolling actually rolled: {shards:?}");
        let mut stored = 0u64;
        for shard in &shards {
            let mut r = TraceFileReader::open(shard).unwrap();
            stored += r.events().unwrap().filter(|e| !e.is_control()).count() as u64;
        }
        assert_eq!(stored, logged);
    }

    /// Strict-reader counts over a node's stored shards: data events, and
    /// the events its `DROPPED` markers say the node's ring lost.
    fn shard_counts(store: &std::path::Path, name: &str) -> (u64, u64) {
        let (mut events, mut lost) = (0, 0);
        for shard in crate::store::shard_paths(store, name) {
            let mut r = TraceFileReader::open(&shard).unwrap();
            for e in r.events().unwrap() {
                if !e.is_control() {
                    events += 1;
                } else if e.minor == control::DROPPED {
                    lost += e.payload[0];
                }
            }
        }
        (events, lost)
    }

    /// A slow store pushes back to the node instead of dropping. The sender
    /// waits whenever its ring is full, so nothing it logs is lost, and it
    /// ships far more than the socket buffers between it and the collector
    /// hold: it can only finish once the dragged store has taken most of
    /// its records, one delay each. The collector drops none, every logged
    /// event is stored, and the stream's DROPPED markers carry exactly the
    /// refusals the sender saw while it waited.
    #[test]
    fn a_dragged_store_pushes_back_instead_of_dropping() {
        const EVENTS: u64 = 1_500_000;
        const DELAY: Duration = Duration::from_millis(5);
        let tmp = TempDir::new("collect-pushback");
        let mut config = CollectorConfig::new(tmp.path());
        config.store_write_delay = Some(DELAY);
        let collector = Collector::bind("127.0.0.1:0", config).unwrap();

        // 64 KiB records: ~550 of them, some 36 MB on the wire.
        let geometry = TraceConfig {
            buffer_words: 8192,
            ..TraceConfig::small()
        };
        let started = std::time::Instant::now();
        let sink = node::connect(collector.local_addr(), "dragged").unwrap();
        let session = TraceSession::builder()
            .geometry(geometry)
            .start(sink)
            .unwrap();
        let h = session.logger().handle(0).unwrap();
        let mut refused = 0u64;
        for i in 0..EVENTS {
            while !h.log_slice(MajorId::TEST, 0, &[i, i]) {
                refused += 1;
                std::thread::yield_now();
            }
        }
        let stats = session.finish();
        let sent = started.elapsed();
        assert!(stats.lossless(), "{stats:?}");

        wait_for_drain(&collector, "dragged", stats.records_written);
        let summary = collector.shutdown();
        let n = summary.node("dragged").expect("node registered");
        assert_eq!(n.records_dropped, 0, "{n:?}");
        assert_eq!(n.records_received, stats.records_written);
        assert_eq!(n.records_stored, n.records_received);
        assert_eq!(n.events_stored, EVENTS);
        assert_eq!(n.events_lost_at_source, refused, "{n:?}");
        assert_eq!(shard_counts(tmp.path(), "dragged"), (EVENTS, refused));
        // Push-back, not buffering: the send lasted at least the store time
        // of half its records.
        assert!(
            sent >= DELAY * (stats.records_written / 2) as u32,
            "sent {} records in {sent:?}",
            stats.records_written
        );
    }

    /// A store that never progresses stalls its node's readers but never
    /// its senders. With the store held, each sender logs (waiting on full)
    /// until the socket buffers fill and its write times out; the session
    /// then declares the sink dead, counts what it could not ship, and
    /// `finish()` returns. Another node streams through untouched meanwhile.
    /// Released, the store takes what the sockets held, and every logged
    /// event is either stored or in the session's own `events_lost`.
    #[test]
    fn a_hung_store_still_lets_every_sender_finish() {
        let tmp = TempDir::new("collect-hung");
        let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(tmp.path())).unwrap();
        let addr = collector.local_addr();
        // Every append for "hung" blocks on its store lock until released.
        let hung = collector.shared.node_entry("hung");
        let stalled = hung.store.lock().unwrap();

        // Logs until the sink dies, or `events` if it never does; returns
        // the session's stats, its events logged and the time it took.
        let send = |name: &str, events: u64| {
            let started = std::time::Instant::now();
            let sink = node::connect(addr, name).unwrap();
            assert_eq!(sink.write_timeout().unwrap(), Some(node::SEND_TIMEOUT));
            // Shortened so a dead sink is declared in about a second.
            sink.set_write_timeout(Some(Duration::from_millis(100)))
                .unwrap();
            let session = TraceSession::builder()
                .geometry(TraceConfig::small())
                .start(sink)
                .unwrap();
            let logger = session.logger().clone();
            let h = logger.handle(0).unwrap();
            let sink_dead = || logger.telemetry().sink().buffers_dropped() > 0;
            let mut i = 0;
            while i < events && !sink_dead() {
                if h.log_slice(MajorId::TEST, 0, &[i]) {
                    i += 1;
                } else {
                    std::thread::yield_now();
                }
                assert!(started.elapsed() < Duration::from_secs(60), "{name} wedged");
            }
            let stats = session.finish();
            (stats, i, started.elapsed())
        };

        let (hung_a, hung_b, healthy) = std::thread::scope(|s| {
            let a = s.spawn(|| send("hung", u64::MAX));
            let b = s.spawn(|| send("hung", u64::MAX));
            let healthy = send("healthy", 20_000);
            (a.join().unwrap(), b.join().unwrap(), healthy)
        });
        for (stats, _, took) in [&hung_a, &hung_b] {
            assert!(stats.sink_error.is_some(), "{stats:?}");
            assert!(stats.events_lost > 0, "{stats:?}");
            assert!(*took < Duration::from_secs(30), "finish() took {took:?}");
        }
        assert!(healthy.0.lossless(), "{:?}", healthy.0);
        let h = wait_for_drain(&collector, "healthy", healthy.0.records_written);
        assert_eq!(h.node("healthy").unwrap().events_stored, healthy.1);

        drop(stalled);
        let written = hung_a.0.records_written + hung_b.0.records_written;
        wait_for_drain(&collector, "hung", written);
        let summary = collector.shutdown();
        let n = summary.node("hung").expect("node registered");
        assert!(n.reconciled(), "{n:?}");
        assert_eq!(
            (n.records_received, n.records_dropped),
            (written, 0),
            "{n:?}"
        );
        let logged = hung_a.1 + hung_b.1;
        let lost = hung_a.0.events_lost + hung_b.0.events_lost;
        assert_eq!(n.events_stored + lost, logged, "{n:?}");
    }

    /// A store that cannot be opened is the one cause of a collector drop:
    /// every record is received, counted dropped, reconciled, and shown on
    /// `/metrics`.
    #[test]
    fn a_store_that_fails_drops_and_counts_every_record() {
        let tmp = TempDir::new("collect-store-fails");
        // The node's store directory is taken by a regular file.
        std::fs::write(tmp.path().join("blocked"), b"not a directory").unwrap();
        let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(tmp.path())).unwrap();
        let sink = node::connect(collector.local_addr(), "blocked").unwrap();
        let session = TraceSession::builder()
            .geometry(TraceConfig::small())
            .start(sink)
            .unwrap();
        let h = session.logger().handle(0).unwrap();
        for i in 0..2_000u64 {
            while !h.log_slice(MajorId::TEST, 0, &[i]) {
                std::thread::yield_now();
            }
        }
        let stats = session.finish();
        assert!(stats.lossless(), "{stats:?}");

        let summary = wait_for_drain(&collector, "blocked", stats.records_written);
        let n = summary.node("blocked").expect("node registered");
        assert!(n.reconciled(), "{n:?}");
        assert_eq!(n.records_received, stats.records_written);
        assert_eq!(n.records_dropped, n.records_received, "{n:?}");
        assert_eq!((n.events_dropped, n.events_stored), (2_000, 0), "{n:?}");
        let metrics = crate::scrape::fetch(collector.scrape_addr(), "/metrics").unwrap();
        let dropped = format!(
            "ktrace_collectd_records_total{{node=\"blocked\",outcome=\"dropped\"}} {}\n",
            n.records_dropped
        );
        assert!(metrics.contains(&dropped), "{metrics}");
        collector.shutdown();
    }

    /// Every connection under one name appends to that node's one store,
    /// concurrently, and a later connection with a different geometry
    /// starts a fresh shard with its own header.
    #[test]
    fn connections_sharing_a_name_share_its_store() {
        use std::sync::Barrier;
        const EVENTS: u64 = 2_000;
        let tmp = TempDir::new("collect-same-name");
        let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(tmp.path())).unwrap();
        let addr = collector.local_addr();
        let live = || {
            collector
                .summary()
                .node("twin")
                .map_or(0, |n| n.live_connections)
        };
        // Connects, waits at `go` (if any), logs `EVENTS` without loss, and
        // returns the records written.
        let stream = |geometry: TraceConfig, go: Option<&Barrier>| {
            let sink = node::connect(addr, "twin").unwrap();
            let session = TraceSession::builder()
                .geometry(geometry)
                .start(sink)
                .unwrap();
            if let Some(go) = go {
                go.wait();
            }
            let h = session.logger().handle(0).unwrap();
            for i in 0..EVENTS {
                while !h.log_slice(MajorId::TEST, 1, &[i]) {
                    std::thread::yield_now();
                }
            }
            let stats = session.finish();
            assert!(stats.lossless(), "{stats:?}");
            stats.records_written
        };

        // Both streams are open before either logs an event.
        let go = Barrier::new(3);
        let records = std::thread::scope(|s| {
            let a = s.spawn(|| stream(TraceConfig::small(), Some(&go)));
            let b = s.spawn(|| stream(TraceConfig::small(), Some(&go)));
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while live() < 2 {
                assert!(std::time::Instant::now() < deadline, "both never connected");
                std::thread::sleep(Duration::from_millis(5));
            }
            go.wait();
            a.join().unwrap() + b.join().unwrap()
        });
        wait_for_drain(&collector, "twin", records);
        let shared_shards = crate::store::shard_paths(tmp.path(), "twin").len();
        assert_eq!(shard_counts(tmp.path(), "twin").0, 2 * EVENTS);

        let wide = TraceConfig {
            buffer_words: 256,
            ..TraceConfig::small()
        };
        let more_records = stream(wide, None);
        wait_for_drain(&collector, "twin", records + more_records);
        let summary = collector.shutdown();
        let n = summary.node("twin").expect("node registered");
        assert_eq!((n.connects, n.records_dropped), (3, 0), "{n:?}");
        assert_eq!(n.events_stored, 3 * EVENTS);
        assert_eq!(shard_counts(tmp.path(), "twin").0, 3 * EVENTS);
        let shards = crate::store::shard_paths(tmp.path(), "twin");
        assert!(shards.len() > shared_shards, "{shards:?}");
        for (i, shard) in shards.iter().enumerate() {
            let header = TraceFileReader::open(shard).unwrap().header().buffer_words;
            let expected = if i < shared_shards { 128 } else { 256 };
            assert_eq!(header, expected, "{}", shard.display());
        }
    }

    /// The reader thread counts in place; every consumer of the stored
    /// record decodes it with `parse_buffer`. The two must agree wherever
    /// the chain breaks, or `events_stored` stops meaning "what a reader of
    /// the store will find".
    #[test]
    fn a_record_whose_chain_breaks_is_tallied_up_to_the_break() {
        use ktrace_core::parse_buffer;
        use ktrace_format::EventHeader;
        let event = |ts: u32, major: MajorId, minor: u16, payload: &[u64]| {
            let mut words = vec![EventHeader::new(ts, payload.len(), major, minor)
                .unwrap()
                .encode()];
            words.extend_from_slice(payload);
            words
        };
        let beat = |cpu: u64| [cpu, 7, 0, 0, 0, 0, 0, 0, 1, 0];
        let chain = [
            event(100, MajorId::CONTROL, control::TIME_ANCHOR, &[100, 0]),
            event(100, MajorId::CONTROL, control::DROPPED, &[5]),
            event(101, MajorId::TEST, 1, &[1, 2]),
            event(102, MajorId::CONTROL, control::HEARTBEAT, &beat(0)),
            event(103, MajorId::TEST, 2, &[]),
            event(104, MajorId::LOCK, 2, &[9, 9, 9, 9, 9]),
            event(105, MajorId::CONTROL, control::HEARTBEAT, &beat(1)),
            event(106, MajorId::TEST, 3, &[3]),
            event(106, MajorId::CONTROL, control::DROPPED, &[2]),
        ];
        // The whole chain, then the chain broken before each event in turn:
        // by an unwritten header, and by a length that overruns the buffer.
        let overrun = EventHeader::new(107, 500, MajorId::TEST, 9)
            .unwrap()
            .encode();
        for keep in 0..=chain.len() {
            for breaker in [None, Some(0), Some(overrun)] {
                let mut words: Vec<u64> = chain[..keep].concat();
                if let Some(word) = breaker {
                    words.push(word);
                    words.extend(chain[keep..].concat());
                }
                let mut beats: Vec<Vec<u64>> = Vec::new();
                let (tallied, lost) = tally_record(&words, |b| beats.push(b.to_vec()));

                let parsed = parse_buffer(0, 0, &words, None);
                assert_eq!(parsed.clean(), breaker.is_none());
                assert_eq!(tallied, parsed.data_events().count() as u64);
                let marked: u64 = parsed
                    .events
                    .iter()
                    .filter(|e| e.is_control() && e.minor == control::DROPPED)
                    .map(|e| e.payload[0])
                    .sum();
                assert_eq!(lost, marked, "{keep} events before {breaker:?}");
                let data_before =
                    |e: &&Vec<u64>| EventHeader::decode(e[0]).unwrap().major != MajorId::CONTROL;
                assert_eq!(
                    tallied,
                    chain[..keep].iter().filter(data_before).count() as u64,
                    "{keep} events before {breaker:?}"
                );
                let parsed_beats: Vec<Vec<u64>> = parsed
                    .events
                    .iter()
                    .filter(|e| e.is_control() && e.minor == control::HEARTBEAT)
                    .map(|e| e.payload.to_vec())
                    .collect();
                assert_eq!(beats, parsed_beats);
            }
        }
    }

    /// Polls until the node's stored+dropped records reach `records` (the
    /// readers run behind the senders), panicking after a bounded wait.
    fn wait_for_drain(collector: &Collector, name: &str, records: u64) -> FleetSummary {
        for _ in 0..500 {
            let s = collector.summary();
            if let Some(n) = s.node(name) {
                if n.records_stored + n.records_dropped >= records {
                    return s;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("collector never drained {records} records for {name}");
    }

    #[test]
    fn garbage_connections_are_rejected_not_fatal() {
        let tmp = TempDir::new("collect-garbage");
        let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(tmp.path())).unwrap();
        {
            use std::io::Write as _;
            let mut conn = TcpStream::connect(collector.local_addr()).unwrap();
            conn.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        }
        for _ in 0..500 {
            if collector.shared.stats.connections_rejected() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(collector.shared.stats.connections_rejected(), 1);
        let summary = collector.shutdown();
        assert!(summary.nodes.is_empty());
    }

    /// ROADMAP 3e: observing the fleet must not change what it does. Two
    /// threads scrape `/metrics` and `/anomalies` for as long as a node
    /// beats — at least one scrape lands between any two rounds — and the
    /// detector still steps exactly once per closed round and fires the one
    /// spike exactly once. (When scrapes stepped the detector, `intervals`
    /// counted requests and every extra scraper thinned the deltas.)
    #[test]
    fn scrapes_never_step_the_detector() {
        const ROUNDS: u64 = 21;
        const SPIKE_ROUND: u64 = 16;
        let tmp = TempDir::new("collect-readonly-scrape");
        let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(tmp.path())).unwrap();
        let node = collector.shared.node_entry("web-1");
        let addr = collector.scrape_addr();
        let scrapes = ExactCounter::new(0);
        let done = SignalFlag::new();

        std::thread::scope(|s| {
            for path in ["/metrics", "/anomalies"] {
                let (scrapes, done) = (&scrapes, &done);
                s.spawn(move || {
                    while !done.is_raised() {
                        crate::scrape::fetch(addr, path).expect("scrape");
                        scrapes.add(1);
                    }
                });
            }
            let mut dropped = 0u64;
            for round in 0..ROUNDS {
                dropped += if round == SPIKE_ROUND { 50_000 } else { 1 };
                for cpu in 0..2 {
                    let logged = 1000 * (round + 1);
                    node.note_heartbeat(&[cpu, logged, 0, dropped, 0, 0, 0, 0, round + 1, 0]);
                }
                let seen = scrapes.load();
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while scrapes.load() == seen {
                    assert!(std::time::Instant::now() < deadline, "scrapers stalled");
                    std::thread::yield_now();
                }
            }
            done.raise();
        });
        assert!(scrapes.load() >= ROUNDS);

        // N rounds close N − 1 of them; the last stays open. And the answer
        // is the same however many more times anyone asks.
        let intervals = format!(
            "ktrace_adapt_intervals_total{{node=\"web-1\"}} {}\n",
            ROUNDS - 1
        );
        for _ in 0..100 {
            let metrics = crate::scrape::fetch(addr, "/metrics").unwrap();
            assert!(metrics.contains(&intervals), "{metrics}");
            assert!(metrics.contains("ktrace_adapt_anomalies_total{node=\"web-1\"} 1\n"));
        }
        let anomalies = crate::scrape::fetch(addr, "/anomalies").unwrap();
        assert!(
            anomalies.contains(&format!(
                "\"intervals\":{},\"anomalies_total\":1,\"anomalous\":false",
                ROUNDS - 1
            )),
            "{anomalies}"
        );
    }
}
