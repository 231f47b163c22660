//! `ktrace-testutil` — shared plumbing for the workspace's integration
//! tests.
//!
//! The network-streaming and fleet-collection tests all need the same
//! scaffolding: a loopback TCP receiver that accumulates whatever a sender
//! streams, scratch directories that clean up after themselves, and the
//! "salvage agrees with the strict reader" cross-check. Before this crate
//! each test hand-rolled its own copy; now `tests/network_stream.rs` and
//! the `ktrace-collectd` suites share one implementation.
//!
//! This crate is test support: it never appears in a non-dev dependency
//! edge, and nothing here is tuned for performance.

#![warn(missing_docs)]

use ktrace_core::reader::RawEvent;
use ktrace_io::{salvage_bytes, SalvageReport, TraceFileReader};
use std::io::Read as _;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// A loopback TCP endpoint that accepts **one** connection and accumulates
/// every byte until the peer closes — the receiver half of a streamed-trace
/// test.
///
/// ```no_run
/// let rx = ktrace_testutil::ByteReceiver::spawn();
/// let addr = rx.addr();
/// // … connect a sender to `addr`, stream, close …
/// let bytes = rx.join();
/// ```
pub struct ByteReceiver {
    addr: SocketAddr,
    handle: JoinHandle<Vec<u8>>,
}

impl ByteReceiver {
    /// Binds an ephemeral loopback port and starts the accumulator thread.
    pub fn spawn() -> ByteReceiver {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut bytes = Vec::new();
            conn.read_to_end(&mut bytes).expect("drain stream");
            bytes
        });
        ByteReceiver { addr, handle }
    }

    /// The address a sender should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the sender to close and returns everything received.
    pub fn join(self) -> Vec<u8> {
        self.handle.join().expect("receiver thread")
    }
}

/// A scratch directory removed on drop. Names embed the process ID and a
/// caller tag so concurrent test binaries never collide.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `$TMPDIR/ktrace-<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let n = SERIAL.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("ktrace-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

/// Parses a received byte stream with the strict reader and returns its
/// events (the wire format *is* the file format).
pub fn strict_events(bytes: &[u8]) -> Vec<RawEvent> {
    let mut reader = TraceFileReader::new(std::io::Cursor::new(bytes)).expect("strict parse");
    reader.events().expect("merge").collect()
}

/// The cross-check both streaming tests and collector tests pin: the
/// forgiving salvage reader over `bytes` must report clean and reconstruct
/// the *identical* event stream the strict reader sees. Returns the salvage
/// report for further assertions.
pub fn assert_salvage_matches_strict(bytes: &[u8]) -> SalvageReport {
    let report = salvage_bytes(bytes);
    assert!(report.clean(), "{}", report.render());
    let strict = strict_events(bytes);
    assert_eq!(report.events, strict, "salvage must equal the strict merge");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::TcpStream;

    #[test]
    fn receiver_round_trips_bytes() {
        let rx = ByteReceiver::spawn();
        let mut tx = TcpStream::connect(rx.addr()).unwrap();
        tx.write_all(b"ktrace over the wire").unwrap();
        drop(tx);
        assert_eq!(rx.join(), b"ktrace over the wire");
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed() {
        let a = TempDir::new("t");
        let b = TempDir::new("t");
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        std::fs::write(a.file("x"), b"y").unwrap();
        drop(a);
        assert!(!kept.exists());
    }
}
