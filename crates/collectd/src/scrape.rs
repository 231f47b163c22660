//! The HTTP scrape endpoint: just enough HTTP/1.0 for a Prometheus scraper
//! or `curl`, hand-rolled like the rest of the workspace's exposition (no
//! HTTP dependency, no keep-alive, one request per connection).
//!
//! * `GET /metrics` — the fleet exposition ([`crate::health`]).
//! * `GET /nodes` — live per-node ingest accounting as JSON.
//! * `GET /anomalies` — per-node anomaly-detector state as JSON.
//!
//! All three are pure reads: the detectors are stepped by the streams, not
//! by requests.

use crate::collector::Shared;
use crate::health;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn respond(conn: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        conn,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = conn.flush();
}

fn serve_one(mut conn: TcpStream, shared: &Shared) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));
    let mut line = String::new();
    if BufReader::new(&conn).read_line(&mut line).is_err() {
        return;
    }
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        respond(
            &mut conn,
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n",
        );
        return;
    }
    match path {
        "/metrics" => {
            shared.stats.tally_scrape();
            let body = health::render_fleet_metrics(shared);
            respond(&mut conn, "200 OK", "text/plain; version=0.0.4", &body);
        }
        "/nodes" => {
            let body = health::render_nodes_json(&shared.summaries());
            respond(&mut conn, "200 OK", "application/json", &body);
        }
        "/anomalies" => {
            let body = health::render_anomalies_json(shared);
            respond(&mut conn, "200 OK", "application/json", &body);
        }
        _ => respond(
            &mut conn,
            "404 Not Found",
            "text/plain",
            "try /metrics, /nodes, or /anomalies\n",
        ),
    }
}

/// The scrape accept loop: single-threaded (scrapes are rare and cheap),
/// nonblocking so shutdown is prompt.
pub(crate) fn scrape_loop(listener: TcpListener, shared: &Shared) {
    let _ = listener.set_nonblocking(true);
    while !shared.stop.is_raised() {
        match listener.accept() {
            Ok((conn, _peer)) => {
                let _ = conn.set_nonblocking(false);
                serve_one(conn, shared);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Fetches `path` from a scrape endpoint and returns the response body —
/// the client half of the protocol, used by the CLI and tests.
pub fn fetch(addr: std::net::SocketAddr, path: &str) -> std::io::Result<String> {
    use std::io::Read as _;
    let mut conn = TcpStream::connect(addr)?;
    write!(conn, "GET {path} HTTP/1.0\r\nHost: collectd\r\n\r\n")?;
    conn.flush()?;
    let mut response = String::new();
    conn.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_headers, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed HTTP response",
        )),
    }
}
