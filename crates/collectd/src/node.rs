//! The client half: a node is any process that speaks the hello frame and
//! then hands its socket to a [`TraceSession`] as the sink. The session
//! neither knows nor cares that its sink is a fleet collector — the wire
//! format is the file format, so [`connect`] plus the ordinary builder is
//! the entire client.
//!
//! [`run_ossim_node`] is the batteries-included driver: one call connects,
//! traces an ossim [`NodeSpec`] workload through the socket, and reports
//! both halves (what the simulation did, what the session shipped).

use crate::proto;
use ktrace_core::TraceConfig;
use ktrace_io::{SessionError, SessionStats, TraceSession};
use ktrace_ossim::machine::RunReport;
use ktrace_ossim::{KTracer, NodeSpec};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// How long one socket write may wait without the collector taking a byte
/// before it fails as `WouldBlock`. The collector's readers append to the
/// store themselves, so a store that stops progressing stops its reader
/// reading, and this bounds that push-back: the session retries a
/// timed-out write 8 times, so a sink that takes no byte for about nine of
/// these (≈ 18 s) is declared dead. The drainer then drops and counts every
/// later buffer (`SessionStats::{sink_error, events_lost}`), and `finish()`
/// returns.
pub const SEND_TIMEOUT: Duration = Duration::from_secs(2);

/// Connects to a collector and introduces this node by name. The returned
/// stream is positioned exactly where a [`TraceSession`] sink should start
/// writing (header next), and its writes time out after [`SEND_TIMEOUT`].
pub fn connect(addr: impl ToSocketAddrs, name: &str) -> std::io::Result<TcpStream> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.set_write_timeout(Some(SEND_TIMEOUT))?;
    proto::write_hello(&mut conn, name)?;
    Ok(conn)
}

/// Why a node run failed.
#[derive(Debug)]
pub enum NodeError {
    /// The collector could not be reached (or refused the hello).
    Connect(std::io::Error),
    /// The trace session could not start.
    Session(SessionError),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Connect(e) => write!(f, "cannot reach collector: {e}"),
            NodeError::Session(e) => write!(f, "cannot start node session: {e}"),
        }
    }
}

impl std::error::Error for NodeError {}

/// What one node run did: the simulation half and the shipping half.
#[derive(Debug)]
pub struct NodeReport {
    /// The ossim machine's run report.
    pub run: RunReport,
    /// The trace session's final accounting.
    pub session: SessionStats,
}

/// Connects to the collector at `addr`, then runs `spec`'s workload on an
/// ossim machine traced straight into the socket. `heartbeat` enables
/// periodic `CONTROL`/`HEARTBEAT` telemetry in the stream — the collector's
/// health view is built from those, so live nodes should pass one.
pub fn run_ossim_node(
    addr: impl ToSocketAddrs,
    spec: &NodeSpec,
    heartbeat: Option<Duration>,
) -> Result<NodeReport, NodeError> {
    let conn = connect(addr, &spec.name).map_err(NodeError::Connect)?;
    let mut builder = TraceSession::builder()
        .geometry(TraceConfig::small())
        .ncpus(spec.ncpus)
        .register(ktrace_events::register_all);
    if let Some(every) = heartbeat {
        builder = builder.heartbeat(every);
    }
    let session = builder.start(conn).map_err(NodeError::Session)?;
    let tracer = Arc::new(KTracer::new(session.logger().clone()));
    let run = spec.run(tracer);
    let stats = session.finish();
    Ok(NodeReport {
        run,
        session: stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, CollectorConfig};
    use ktrace_testutil::{ByteReceiver, TempDir};

    #[test]
    fn connect_sends_the_hello_before_anything_else() {
        let receiver = ByteReceiver::spawn();
        let conn = connect(receiver.addr(), "web-3").unwrap();
        drop(conn);
        let bytes = receiver.join();
        let name = proto::read_hello(&mut std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(name, "web-3");
    }

    #[test]
    fn an_ossim_node_streams_a_full_run() {
        let tmp = TempDir::new("node-run");
        let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(tmp.path())).unwrap();
        let spec = NodeSpec::new("sim-0", 2);
        let report = run_ossim_node(
            collector.local_addr(),
            &spec,
            Some(Duration::from_millis(5)),
        )
        .unwrap();
        assert!(report.run.tasks_completed > 0);
        assert!(report.session.records_written > 0);
        // Give the reader a moment to store what the socket holds, then
        // reconcile.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let summary = collector.summary();
            let n = summary.node("sim-0");
            if n.is_some_and(|n| {
                n.records_stored + n.records_dropped >= report.session.records_written
            }) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "collector never drained sim-0: {summary:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let summary = collector.shutdown();
        let n = summary.node("sim-0").expect("node registered");
        assert!(n.reconciled(), "{n:?}");
        assert_eq!(n.records_received, report.session.records_written);
        assert!(n.heartbeats_seen > 0, "heartbeats rode the stream");
    }

    #[test]
    fn refused_connections_surface_as_connect_errors() {
        // Bind-then-drop yields an address nothing listens on.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let spec = NodeSpec::new("sim-1", 1);
        match run_ossim_node(addr, &spec, None) {
            Err(NodeError::Connect(_)) => {}
            other => panic!("expected Connect error, got {other:?}"),
        }
    }
}
