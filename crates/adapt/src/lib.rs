//! Adaptive tracing control plane: the tracer observing — and correcting —
//! itself.
//!
//! The paper's unified-monitoring thesis gives the tracer its own telemetry
//! (PR 4) and streams it fleet-wide as heartbeats (PR 7), but nothing
//! *acted* on it. This crate closes the loop, in the spirit of Deransart's
//! tracer-driver argument: filter at the driver, where observation cost is
//! bounded, instead of drowning the consumer.
//!
//! * [`Detector`] — a dependency-free anomaly detector over
//!   [`TelemetrySnapshot`](ktrace_telemetry::TelemetrySnapshot) delta
//!   tracks: EWMA baseline plus a robust (median/MAD) z-score per track,
//!   with cold-start and absolute-floor guards. Total on any input — no
//!   NaN, no panic, counter wraps tolerated (pinned by proptests).
//! * [`Controller`] — converts verdicts into actions on a live
//!   [`TraceLogger`](ktrace_core::TraceLogger): escalating shed levels
//!   raise the one sampling rate
//!   ([`SampleGate`](ktrace_core::SampleGate)) and, at the top level,
//!   narrow the trace mask; sustained health walks the levels back down
//!   and restores the mask bits the narrowing cleared.
//! * **Audit trail** — every decision is logged into the trace itself as a
//!   `CONTROL` event (`ANOMALY`, `MASK_ADJUST`, `SAMPLE_ADJUST` minors),
//!   so a post-hoc `ktrace-tools assert` run can prove what the control
//!   plane did and why.
//!
//! The fleet side lives in `ktrace-collectd` (a detector per node over
//! heartbeat-rebuilt snapshots, surfaced on `/metrics` and `/anomalies`);
//! the closed-loop CLI is `ktrace-tools adapt` (exit 43 = anomaly fired
//! and still unresolved at finish).

pub mod controller;
pub mod detector;

pub use controller::{direction, Controller, StepReport, MAX_LEVEL};
pub use detector::{track, Anomaly, Detector, NUM_TRACKS};
