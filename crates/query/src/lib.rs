//! `ktrace-query` — the unified trace query engine.
//!
//! Events reach an analyst four different ways: a strict trace file, a live
//! flight-recorder snapshot, a salvaged byte image, and a drained network
//! stream. Each becomes one canonically ordered [`Trace`] — the snapshot
//! through [`Trace::from_logger`], the stream through the strict reader over
//! its bytes — and this crate queries that one model:
//!
//! * [`source`] — the [`TraceSource`] trait over stored traces: the strict
//!   file and the salvaged image here, a collector's shards in
//!   `ktrace-collectd`.
//! * [`index`] — per-CPU and time-range random access over a loaded set
//!   (the in-memory analogue of the §3.2 alignment-point seeks the file
//!   reader does on disk).
//! * [`expr`] — the predicate/aggregation expression language
//!   (`count(major == LOCK & minor == 2) == 0`) with a canonical printer.
//! * [`eval`] — [`Query`]: indexed evaluation, property-tested against the
//!   naive reference interpreter in `tests/expr_props.rs`.
//! * [`spec`] — named assertion specs (`props/ktrace.toml`) evaluated into
//!   a [`Report`](ktrace_verify::Report) on the exit-code table
//!   `ktrace-tools verify` also exits on (assertion band: codes 36–39).
//!
//! # Example
//!
//! ```
//! use ktrace_query::{parse_assertion, Query, Trace};
//! use ktrace_format::EventRegistry;
//!
//! let trace = Trace::new(vec![], EventRegistry::with_builtin(), 1_000_000_000);
//! let q = Query::new(trace);
//! let a = parse_assertion("count(major == CONTROL & minor == 2) == 0").unwrap();
//! let actual = q.eval(&a.agg);
//! assert_eq!(actual, 0);
//! assert!(a.holds(actual));
//! ```

#![warn(missing_docs)]

pub mod eval;
pub mod expr;
pub mod index;
pub mod source;
pub mod spec;

pub use eval::{pred_bounds, pred_matches, Query};
pub use expr::{
    parse_agg, parse_assertion, parse_pred, Agg, Assertion, CmpOp, Field, ParseError, Pred,
    SpanSpec,
};
pub use index::{Bounds, EventIndex};
pub use ktrace_format::exit;
pub use ktrace_io::Trace;
pub use source::{FileSource, QueryError, SalvageSource, TraceSource};
pub use spec::{violation_kind, Property, Spec, SpecError};
