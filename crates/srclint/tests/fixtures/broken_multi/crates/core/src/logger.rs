//! Broken fixture, second half: the logger's fast path allocates (exit 32).
//! With the lock cycle in `crates/sync` the tree trips two passes at once.

impl TraceLogger {
    /// VIOLATION: a heap-allocating macro on the lockless logging path.
    pub fn log(&self, major: MajorId, minor: u16, payload: &[u64]) -> bool {
        let label = format!("{major:?}/{minor}");
        self.region().log_raw(minor, payload) && !label.is_empty()
    }
}
