//! `ktrace-collectd` — fleet-scale trace aggregation.
//!
//! The paper's infrastructure monitors one machine; a deployment monitors a
//! fleet. This crate is the aggregation half: a TCP service that accepts
//! many concurrent trace streams (each an ossim "node"), lands them in a
//! shared on-disk store, and exposes fleet health — built entirely from the
//! workspace's existing pieces, because **the wire format is the file
//! format**:
//!
//! * [`proto`] — the wire protocol: an 8-byte hello frame naming the node,
//!   then the unmodified trace byte stream a [`TraceSession`] already
//!   produces (`ktrace-io` header + fixed-size records).
//! * [`collector`] — the service: one reader thread per connection, which
//!   appends its node's records to the store itself. A slow store pushes
//!   back through TCP to the node, whose ring records the loss as in-stream
//!   `DROPPED` markers (§3.1); the collector counts them per node and drops
//!   a record only when the store fails.
//! * [`store`] — the rolling sharded store: each node's stream lands as a
//!   sequence of valid trace files (`<store>/<node>/shard-NNNN.ktrace`),
//!   every record at a computable offset (§3.2 alignment-point random
//!   access survives aggregation).
//! * [`health`] — per-node health reconstructed from the `CONTROL`/
//!   `HEARTBEAT` events in the streams themselves, rendered with
//!   `ktrace-telemetry`'s Prometheus exposition.
//! * [`scrape`] — the HTTP scrape endpoint (`/metrics`, `/nodes`,
//!   `/anomalies`) serving per-node heartbeat-derived health — including
//!   each node's `ktrace-adapt` anomaly-detector state — plus the
//!   collector's own counters.
//! * [`source`] — [`CollectSource`]: a `ktrace-query` [`TraceSource`] over
//!   the store, so `props/ktrace.toml` assertions run unchanged against
//!   fleet data, per node or fleet-wide merged.
//! * [`node`] — the client half: speak the hello, then hand the socket to a
//!   session as its sink; plus a driver running an ossim [`NodeSpec`] as a
//!   live node.
//!
//! Exit codes for collector operations live on the shared table
//! ([`exit::COLLECT_BIND`], [`exit::COLLECT_STORE`], [`exit::COLLECT_LOSSY`]).
//!
//! [`TraceSession`]: ktrace_io::TraceSession
//! [`TraceSource`]: ktrace_query::TraceSource
//! [`NodeSpec`]: ktrace_ossim::NodeSpec
//!
//! # Example
//!
//! ```no_run
//! use ktrace_collectd::{node, Collector, CollectorConfig};
//! use ktrace_io::TraceSession;
//!
//! let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new("/tmp/fleet")).unwrap();
//! let sink = node::connect(collector.local_addr(), "web-3").unwrap();
//! let session = TraceSession::builder().ncpus(2).start(sink).unwrap();
//! // … trace through session.logger() …
//! session.finish();
//! let summary = collector.shutdown();
//! assert!(summary.reconciled());
//! ```

#![warn(missing_docs)]

pub mod collector;
pub mod health;
pub mod node;
pub mod proto;
pub mod scrape;
pub mod source;
pub mod store;

pub use collector::{CollectError, Collector, CollectorConfig, FleetSummary, NodeSummary};
pub use ktrace_format::exit;
pub use node::{NodeError, NodeReport};
pub use source::CollectSource;
