//! The single authoritative process exit-code table for every `ktrace`
//! binary and checker.
//!
//! Historically each crate kept its own copy of its band (verify's stream
//! codes, the retired source linter's 30–35, query's 36–39) as numeric
//! literals scattered through match arms and CLI `process::exit` calls. This
//! module owns every code; the other crates re-export it
//! (`ktrace_verify::exit`, `ktrace_query::exit`, `ktrace_collectd::exit`,
//! and the facade's `ktrace::exit`) so a grep for any code lands here.
//!
//! Bands:
//!
//! | band | codes | owner |
//! |------|-------|-------|
//! | process | 0–2 | every CLI: clean / input unreadable / usage error |
//! | stream verify | 10–20 | `ktrace-tools verify` (dynamic trace-stream checks) |
//! | lock order | 34 | `ktrace-tools verify lockorder` (30–33 and 35 retired, reserved) |
//! | trace assertions | 36–39 | `ktrace-query` (`ktrace-tools assert`) |
//! | collector ops | 40–42 | `ktrace-collectd` (fleet-service operational) |
//! | adaptive control | 43 | `ktrace-tools adapt` (closed-loop operational) |
//!
//! The verify and assert bands are mirrored by
//! `ktrace_verify::ViolationKind::exit_code`, which maps each violation
//! class onto these constants; a report's exit code is the *smallest* code
//! among the violated classes, so distinct failures stay distinguishable in
//! CI. The collector band is operational, not a violation class: those
//! codes describe why a `ktrace-tools collect` run itself could not finish
//! clean.

/// Clean: the tool ran and found nothing wrong.
pub const CLEAN: u8 = 0;
/// The input (trace file, store, workspace) could not be read at all.
pub const UNREADABLE: u8 = 1;
/// Command-line usage error.
pub const USAGE: u8 = 2;

// --- Stream-verify band (10–20): dynamic checks over a trace stream. ---

/// A buffer record is shorter than declared, or the file ends mid-record.
pub const TRUNCATED_BUFFER: u8 = 10;
/// Commit-count garbling (§3.1): drained before every reservation committed.
pub const GARBLED_COMMIT: u8 = 11;
/// A timestamp stepped backwards within or across a CPU's buffers.
pub const NON_MONOTONIC_TIMESTAMP: u8 = 12;
/// An event's `(major, minor)` has no descriptor in the registry.
pub const UNDECLARED_EVENT: u8 = 13;
/// Filler events that do not realign the stream to the buffer boundary.
pub const FILLER_MISALIGNED: u8 = 14;
/// An event's declared length disagrees with its descriptor's field spec.
pub const LENGTH_MISMATCH: u8 = 15;
/// A buffer does not begin with a time anchor.
pub const MISSING_ANCHOR: u8 = 16;
/// The embedded event registry itself is inconsistent.
pub const BAD_REGISTRY: u8 = 17;
/// A drain was lossy: logged events never reached the file.
pub const LOSSY_DRAIN: u8 = 18;
/// A data race found by the lockset / vector-clock detector.
pub const DATA_RACE: u8 = 20;

// --- Retired static band (30–35): once source-lint codes. ---

// 30 (schema-mismatch) and 31 (id-space-collision) are retired: event
// arity, minors and the ID space are compile errors in `ktrace_event!` and
// its generated emitters. Both stay reserved; never assign them again.
// 32 (hot-path-hazard) is retired: the logging path is the `no_std` crate
// `ktrace-lockless`, which has no `alloc`, so allocating, locking or doing
// I/O there fails to build. Reserved; never assign it again.
// 33 (atomic-order-violation) is retired: each atomic is a
// `crate::protocol` role type whose methods fix its orderings, so a
// forbidden ordering is a compile error. Reserved; never assign it again.
/// The trace's lock-order graph has a cycle from distinct threads with no
/// common gate lock (`ktrace-tools verify lockorder`).
pub const LOCK_ORDER_CYCLE: u8 = 34;
// 35 (unsafe-unjustified) is retired: the workspace forbids `unsafe_code`
// outside the clock's one ordered TSC read, and clippy's
// `undocumented_unsafe_blocks` wants that block's `// SAFETY:` comment, so
// both are build errors. Reserved; never assign it again.

// --- Trace-assertion band (36–39): declarative properties over a trace. ---

/// A count/sum/rate/max bound on matching events does not hold.
pub const ASSERT_COUNT: u8 = 36;
/// A REQUEST/RELEASE-style span shape left unpaired endpoints.
pub const ASSERT_PAIRING: u8 = 37;
/// A closed span exceeded its declared maximum duration.
pub const ASSERT_DURATION: u8 = 38;
/// The gap between consecutive matching events exceeded its cadence bound.
pub const ASSERT_CADENCE: u8 = 39;

// --- Collector band (40–42): ktrace-collectd operational outcomes. ---

/// The collector could not bind or serve its ingest / scrape sockets.
pub const COLLECT_BIND: u8 = 40;
/// The collector store could not be created, written, or re-opened.
pub const COLLECT_STORE: u8 = 41;
/// The run finished but the fleet lost events: the collector dropped
/// records because its store failed, or the nodes' rings dropped events to
/// overrun and wrote DROPPED markers into their streams (both are on the
/// scrape endpoint and in the per-node summary — this code just makes a
/// lossy serve scriptable, the same way [`LOSSY_DRAIN`] makes a lossy
/// record scriptable).
pub const COLLECT_LOSSY: u8 = 42;

// --- Adaptive-control band (43): ktrace-tools adapt operational outcome. ---

/// The adaptive control plane fired an anomaly that was still unresolved
/// (detail shed, drop rate not recovered) when the run finished. Scriptable
/// the same way [`COLLECT_LOSSY`] is: the run itself completed, but the
/// closed loop never converged back to full detail.
pub const ADAPT_ANOMALY: u8 = 43;

/// Every assigned code, in order, with its machine-greppable label — the
/// rendered form of DESIGN.md's authoritative table.
pub const TABLE: &[(u8, &str)] = &[
    (CLEAN, "clean"),
    (UNREADABLE, "unreadable"),
    (USAGE, "usage"),
    (TRUNCATED_BUFFER, "truncated-buffer"),
    (GARBLED_COMMIT, "garbled-commit"),
    (NON_MONOTONIC_TIMESTAMP, "non-monotonic-timestamp"),
    (UNDECLARED_EVENT, "undeclared-event"),
    (FILLER_MISALIGNED, "filler-misaligned"),
    (LENGTH_MISMATCH, "length-mismatch"),
    (MISSING_ANCHOR, "missing-anchor"),
    (BAD_REGISTRY, "bad-registry"),
    (LOSSY_DRAIN, "lossy-drain"),
    (DATA_RACE, "data-race"),
    (LOCK_ORDER_CYCLE, "lock-order-cycle"),
    (ASSERT_COUNT, "assert-count"),
    (ASSERT_PAIRING, "assert-pairing"),
    (ASSERT_DURATION, "assert-duration"),
    (ASSERT_CADENCE, "assert-cadence"),
    (COLLECT_BIND, "collect-bind"),
    (COLLECT_STORE, "collect-store"),
    (COLLECT_LOSSY, "collect-lossy"),
    (ADAPT_ANOMALY, "adapt-anomaly"),
];

// The bands must stay clear of the reserved process codes and of each
// other; checked at compile time so a renumbering cannot slip through.
const _: () = {
    assert!(TRUNCATED_BUFFER > USAGE);
    assert!(DATA_RACE < LOCK_ORDER_CYCLE);
    assert!(LOCK_ORDER_CYCLE < ASSERT_COUNT);
    assert!(ASSERT_CADENCE < COLLECT_BIND);
    assert!(COLLECT_LOSSY < ADAPT_ANOMALY);
};

/// The label for `code`, if it is an assigned exit code.
pub fn label(code: u8) -> Option<&'static str> {
    TABLE
        .iter()
        .find(|(c, _)| *c == code)
        .map(|(_, name)| *name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_ordered() {
        let codes: Vec<u8> = TABLE.iter().map(|(c, _)| *c).collect();
        assert!(
            codes.windows(2).all(|w| w[0] < w[1]),
            "table must be sorted"
        );
        let mut dedup = codes.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "codes must be distinct");
    }

    #[test]
    fn labels_resolve() {
        assert_eq!(label(LOSSY_DRAIN), Some("lossy-drain"));
        assert_eq!(label(COLLECT_LOSSY), Some("collect-lossy"));
        assert_eq!(label(3), None);
    }
}
