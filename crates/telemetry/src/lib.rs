//! # ktrace-telemetry — the tracer watching itself
//!
//! The paper's headline is that tracing is cheap enough to stay compiled in;
//! this crate makes that claim *observable at runtime*. It is a metrics plane
//! riding beside the event plane: per-CPU, cache-line-padded counter blocks
//! record what the lockless logger is doing (CAS reservation retries, events
//! logged / masked / dropped, filler words, buffer wraps, flight-recorder
//! overwrites), log2-bucketed fixed-size histograms record reservation and
//! drain-write latency, and the drain/salvage side feeds sink retry/drop and
//! recovery counters into the same [`Telemetry`] registry.
//!
//! Design rules for [`counters`]. The reservation loop in the `no_std`
//! crate `ktrace-lockless` tallies through the [`ReserveTally`] impl on
//! [`CpuCounters`] and counts each data event in its buffer slot's commit
//! word, which the [`Telemetry`] registry owns; that impl and the logger's
//! `tally_masked` sit on the std side of the logging path, which no build
//! property checks, so they keep to these rules by review:
//!
//! * **Lock-free and allocation-free on the hot path.** Every `tally_*` /
//!   `observe_*` call touches only the calling CPU's own padded cache line —
//!   a relaxed `fetch_add` for counters that back accounting invariants, a
//!   plain load+store for per-CPU statistics (see [`counters`] for the
//!   two-tier rules) — no locks, no heap, no I/O, safe in any context the
//!   logger itself is safe in.
//! * **Fixed memory.** Histograms are fixed arrays indexed by `log2(value)`;
//!   nothing grows at runtime.
//! * **Readers never perturb writers.** [`Telemetry::snapshot`] reads with
//!   relaxed loads; [`TelemetrySnapshot::delta`] turns two snapshots into
//!   interval rates for live monitors (`ktrace-tools top`).
//!
//! Exposition: [`to_prometheus`] renders the classic text format
//! (hand-rolled — no external dependencies), and the logger emits a
//! periodic `CONTROL`/`HEARTBEAT` event carrying the counter block *into the
//! trace itself* (schema shared via [`ktrace_format::ids::control`]), so
//! post-processing can plot tracer health over trace time.

pub mod counters;
pub mod expo;
pub mod schema;
pub mod snapshot;

pub use counters::{
    bucket_floor, bucket_index, CpuCounters, Histogram, SalvageCounters, SinkCounters, Telemetry,
    HIST_BUCKETS,
};
pub use expo::{to_prometheus, to_prometheus_labeled};
pub use ktrace_lockless::ReserveTally;
pub use schema::{CounterDesc, HistDesc};
pub use snapshot::{
    hist_count, hist_mean, hist_quantile, CpuTelemetry, SalvageTelemetry, SinkTelemetry,
    TelemetrySnapshot,
};
