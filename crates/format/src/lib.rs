//! Trace-event *format* layer for `ktrace`.
//!
//! This crate defines everything about what a trace event **is**, independent of
//! how events are logged (that is `ktrace-core`) or stored (`ktrace-io`):
//!
//! * [`header`] — the packed 64-bit event header word used by the K42 tracing
//!   infrastructure (32-bit timestamp, 10-bit length, 6-bit major ID, 16-bit
//!   minor data), plus the control events (filler, time anchor) that keep the
//!   variable-length stream randomly accessible.
//! * [`ids`] — the major/minor ID space. At most 64 major IDs exist so that a
//!   single 64-bit mask test decides whether an event is logged.
//! * [`mask`] — the [`TraceMask`]: one hot word consulted by
//!   every (inlined) log statement.
//! * [`protocol`] — the memory-ordering roles: one atomic type per way an
//!   atomic is used, each allowing only its role's orderings.
//!
//!   These four run on the logging path, so they live in the `no_std`
//!   crate `ktrace-lockless` and are re-exported here under their old paths.
//! * [`pack`] — helpers that pack multiple sub-64-bit quantities and strings
//!   into 64-bit words, mirroring the macros the paper describes ("we chose to
//!   log only 64-bit words").
//! * [`describe`] — the self-describing event registry (§4.4 of the paper):
//!   each event carries a field spec such as `"64 64 str"` and a printf-like
//!   template such as `"Region %0[%llx] attach to FCM %1[%llx]"`, so tools can
//!   display events "without any special knowledge of the events themselves".
//! * [`text`] — text encodings every report writer shares (JSON string
//!   escaping).
//!
//! The layout constants here are shared by the lockless logger, every baseline
//! logger, the file format, and all analysis tools — the paper's "unified"
//! property.

pub mod describe;
pub mod error;
pub mod exit;
pub mod pack;
pub mod text;

pub use describe::{EventDescriptor, EventRegistry, FieldSpec, FieldToken, FieldValue};
pub use error::FormatError;
pub use ktrace_lockless::{header, ids, mask, protocol};
pub use ktrace_lockless::{
    Event, EventHeader, LayoutError, MajorId, MinorId, TraceMask, MAX_EVENT_WORDS,
    MAX_PAYLOAD_WORDS, NUM_MAJOR_IDS,
};
