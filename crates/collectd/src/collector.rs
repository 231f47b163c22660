//! The aggregation service: accept, shard, account, store.
//!
//! One reader thread per connection parses the stream into whole records
//! and hands each to a store worker over a **bounded** queue. A node always
//! hashes to the same worker, so its records are stored in arrival order
//! with no cross-worker contention. When a queue is full the record is
//! **dropped and counted** — backpressure reaches the node's accounting,
//! never its socket, so a slow disk cannot wedge the fleet (the same
//! degrade-don't-wedge contract as the session drainer in
//! `ktrace-io::session`).
//!
//! Exact accounting is the invariant everything else leans on: every
//! well-formed record's data events land in exactly one of *stored* or
//! *dropped*, so `events_stored + events_dropped == events_received` holds
//! per node at all times — the reconciliation the fleet tests pin.

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
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Collector tuning. The defaults suit tests and small fleets; production
/// mostly raises `queue_depth` and `records_per_shard`.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Root of the on-disk store (`<store>/<node>/shard-NNNN.ktrace`).
    pub store_dir: PathBuf,
    /// Store worker threads; each owns the stores of the nodes hashed to
    /// it.
    pub shards: usize,
    /// Bound of each worker's ingest queue, records. A full queue turns
    /// arrivals into counted drops.
    pub queue_depth: usize,
    /// Records per shard file before rolling to the next.
    pub records_per_shard: u64,
    /// Socket read timeout — the cadence at which reader threads notice a
    /// shutdown request.
    pub read_timeout: Duration,
    /// Artificial per-record store latency. A test drill: drags the workers
    /// so bounded queues overflow and the drop path is exercised.
    pub store_write_delay: Option<Duration>,
}

impl CollectorConfig {
    /// Defaults rooted at `store_dir`: 4 shards, 256-record queues,
    /// 4096-record shard files.
    pub fn new(store_dir: impl Into<PathBuf>) -> CollectorConfig {
        CollectorConfig {
            store_dir: store_dir.into(),
            shards: 4,
            queue_depth: 256,
            records_per_shard: 4096,
            read_timeout: Duration::from_millis(25),
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
    /// thread, its store worker, the scrape endpoint, and summaries. Plain
    /// counters under relaxed ordering: every value is a statistic, ordered
    /// by the happens-before edges of the queue hand-off.
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
            "Records dropped — queue overflow or store failure — instead of blocking the stream.";
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

    /// One record, and the data events inside it, dropped and counted
    /// instead of blocking the stream.
    fn tally_dropped(&self, events: u64) {
        self.records_dropped.add(1);
        self.events_dropped.add(events);
    }
}

/// One node, as every collector thread sees it.
pub(crate) struct NodeState {
    pub(crate) name: String,
    counters: NodeCounters,
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
            health: Mutex::new(NodeHealth::default()),
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

    /// True if nothing was dropped, torn, or garbled.
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
            "{:<20} {:>9} {:>9} {:>8} {:>10} {:>10} {:>9} {:>6}",
            "node", "records", "stored", "dropped", "events", "ev-stored", "ev-drop", "beats"
        );
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "{:<20} {:>9} {:>9} {:>8} {:>10} {:>10} {:>9} {:>6}{}",
                n.name,
                n.records_received,
                n.records_stored,
                n.records_dropped,
                n.events_received,
                n.events_stored,
                n.events_dropped,
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

/// One record queued from a reader to a store worker.
struct StoreJob {
    node: Arc<NodeState>,
    header_bytes: Arc<Vec<u8>>,
    record_size: usize,
    bytes: Vec<u8>,
    data_events: u64,
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

/// Stable tiny string hash (FNV-1a) for node→shard assignment.
fn shard_of(name: &str, shards: usize) -> usize {
    let h = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    (h % shards as u64) as usize
}

/// What the reader thread takes from a record, in place: the number of data
/// events in it (up to the first garble — what a reader of the stored record
/// will decode), with every HEARTBEAT's payload handed to `on_heartbeat`.
fn tally_record(words: &[u64], mut on_heartbeat: impl FnMut(&[u64])) -> u64 {
    let mut data_events = 0;
    for e in walk_buffer(words, None) {
        if !e.is_control() {
            data_events += 1;
        } else if e.minor == control::HEARTBEAT {
            on_heartbeat(e.payload);
        }
    }
    data_events
}

/// One connection, hello to EOF.
fn serve_connection(conn: TcpStream, shared: &Shared, senders: &[SyncSender<StoreJob>]) {
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
    let tx = &senders[shard_of(&name, senders.len())];
    let header_bytes = Arc::new(header_bytes);

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
        // Walk once, here: exact event accounting for the drop path and
        // heartbeat capture for health, whatever the store decides.
        words.clear();
        words.extend(body_words(frame.body));
        let data_events = tally_record(&words, |beat| node.note_heartbeat(beat));
        node.counters.tally_received(data_events, got as u64);
        let job = StoreJob {
            node: node.clone(),
            header_bytes: header_bytes.clone(),
            record_size,
            bytes: buf.clone(),
            data_events,
        };
        match tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) => {
                // The bounded-queue contract: never block the stream.
                job.node.counters.tally_dropped(job.data_events);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    node.counters.live_connections.sub(1);
}

/// One store worker: owns the `NodeStore`s of every node hashed to it.
/// Exits when all senders are dropped (shutdown), after draining the queue
/// and flushing every store.
fn store_worker(rx: Receiver<StoreJob>, shared: &Shared) {
    let mut stores: HashMap<String, NodeStore> = HashMap::new();
    while let Ok(job) = rx.recv() {
        if let Some(delay) = shared.config.store_write_delay {
            std::thread::sleep(delay);
        }
        let name = job.node.name.clone();
        // A reconnect with different geometry gets a fresh store (shard
        // numbering continues; every shard is self-describing).
        if stores
            .get(&name)
            .is_some_and(|s| s.record_size() != job.record_size)
        {
            if let Some(mut old) = stores.remove(&name) {
                let _ = old.finish();
            }
        }
        let store = match stores.entry(name) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                match NodeStore::create(
                    &shared.config.store_dir,
                    &job.node.name,
                    job.header_bytes.as_ref().clone(),
                    job.record_size,
                    shared.config.records_per_shard,
                ) {
                    Ok(s) => e.insert(s),
                    Err(_) => {
                        job.node.counters.tally_dropped(job.data_events);
                        continue;
                    }
                }
            }
        };
        match store.append(&job.bytes) {
            Ok(()) => {
                job.node.counters.tally_stored(job.data_events);
            }
            Err(_) => {
                job.node.counters.tally_dropped(job.data_events);
            }
        }
    }
    for store in stores.values_mut() {
        let _ = store.finish();
    }
}

/// The running aggregation service. Dropping it (or calling
/// [`shutdown`](Collector::shutdown)) stops every thread; no thread ever
/// blocks without a stop check, so teardown is prompt even with nodes
/// mid-stream.
pub struct Collector {
    shared: Arc<Shared>,
    addr: SocketAddr,
    scrape_addr: SocketAddr,
    senders: Vec<SyncSender<StoreJob>>,
    workers: Vec<JoinHandle<()>>,
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

        let shards = shared.config.shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = std::sync::mpsc::sync_channel(shared.config.queue_depth.max(1));
            senders.push(tx);
            let shared2 = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("collectd-store-{i}"))
                    .spawn(move || store_worker(rx, &shared2))
                    .expect("spawn store worker"),
            );
        }

        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared2 = shared.clone();
            let senders2 = senders.clone();
            let readers2 = readers.clone();
            std::thread::Builder::new()
                .name("collectd-accept".into())
                .spawn(move || {
                    while !shared2.stop.is_raised() {
                        match listener.accept() {
                            Ok((conn, _peer)) => {
                                shared2.stats.connections_accepted.add(1);
                                let _ = conn.set_nonblocking(false);
                                let _ = conn.set_read_timeout(Some(shared2.config.read_timeout));
                                let shared3 = shared2.clone();
                                let senders3 = senders2.clone();
                                let handle = std::thread::Builder::new()
                                    .name("collectd-reader".into())
                                    .spawn(move || serve_connection(conn, &shared3, &senders3))
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
            senders,
            workers,
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

    /// Stops accepting, unwinds every reader, drains the store queues,
    /// flushes every shard, and returns the final accounting.
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
        // Dropping the senders ends the workers' recv loops; they drain
        // what is queued and flush.
        self.senders.clear();
        for h in std::mem::take(&mut self.workers) {
            let _ = h.join();
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

    /// The bounded queue drops a record only when it is full. With the store
    /// worker dragged, records pile up in the queue; with fewer records sent
    /// than it holds, none can find it full, whatever the timing.
    #[test]
    fn no_record_is_dropped_while_the_queue_has_room() {
        const DEPTH: usize = 64;
        let tmp = TempDir::new("collect-room");
        let mut config = CollectorConfig::new(tmp.path());
        config.shards = 1;
        config.queue_depth = DEPTH;
        config.store_write_delay = Some(Duration::from_millis(2));
        let collector = Collector::bind("127.0.0.1:0", config).unwrap();

        let sink = node::connect(collector.local_addr(), "roomy").unwrap();
        let session = TraceSession::builder()
            .geometry(TraceConfig::small())
            .start(sink)
            .unwrap();
        let h = session.logger().handle(0).unwrap();
        for i in 0..1_000u64 {
            // Wait out a full ring rather than drop: ≈ 24 records in all.
            while !h.log_slice(MajorId::TEST, 0, &[i, i]) {
                std::thread::yield_now();
            }
        }
        let stats = session.finish();
        assert!(stats.lossless(), "{stats:?}");
        assert!(stats.records_written <= DEPTH as u64, "{stats:?}");

        let summary = wait_for_drain(&collector, "roomy", stats.records_written);
        let n = summary.node("roomy").expect("node registered");
        assert_eq!(n.records_received, stats.records_written);
        assert_eq!(n.records_dropped, 0, "{n:?}");
        assert_eq!(n.records_stored, n.records_received);
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
            event(101, MajorId::TEST, 1, &[1, 2]),
            event(102, MajorId::CONTROL, control::HEARTBEAT, &beat(0)),
            event(103, MajorId::TEST, 2, &[]),
            event(104, MajorId::LOCK, 2, &[9, 9, 9, 9, 9]),
            event(105, MajorId::CONTROL, control::HEARTBEAT, &beat(1)),
            event(106, MajorId::TEST, 3, &[3]),
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
                let tallied = tally_record(&words, |b| beats.push(b.to_vec()));

                let parsed = parse_buffer(0, 0, &words, None);
                assert_eq!(parsed.clean(), breaker.is_none());
                assert_eq!(tallied, parsed.data_events().count() as u64);
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
    /// queues are asynchronous), panicking after a bounded wait.
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
