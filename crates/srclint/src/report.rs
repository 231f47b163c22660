//! The lint report: findings and the shared exit-code table.
//!
//! `ktrace-lint` draws its violation classes from the same
//! [`ViolationKind`] enum as the dynamic stream verifier (`ktrace-verify`),
//! so a CI exit code identifies the broken invariant regardless of which
//! tool found it: dynamic stream checks exit 10–20, static source checks
//! exit 32 (`hot-path-hazard`) or 34 (`lock-order-cycle`); 0/1/2 stay
//! reserved for clean/unreadable/usage, and 30/31/33/35 for the retired
//! schema, atomics and unsafe passes.
//! When several passes fail, the exit code is the **lowest** (most severe)
//! code present and the report lists every failing pass.

use ktrace_format::text::json_escape;
pub use ktrace_verify::ViolationKind;
use std::fmt::Write as _;

/// One static-analysis finding, locatable in source.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violation class (always one of the static kinds).
    pub kind: ViolationKind,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable specifics.
    pub detail: String,
}

/// Scan statistics, reported alongside findings so "clean" is
/// distinguishable from "didn't look".
#[derive(Debug, Clone, Copy, Default)]
pub struct LintStats {
    /// Files tokenized across all passes.
    pub files_scanned: usize,
    /// Functions walked by the hot-path pass.
    pub hot_fns_walked: usize,
    /// Lock classes discovered by the lock-order pass.
    pub lock_classes: usize,
    /// Static lock-acquisition edges discovered.
    pub lock_edges: usize,
}

/// The complete lint outcome.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Violations, in discovery order.
    pub findings: Vec<Finding>,
    /// Scan statistics.
    pub stats: LintStats,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> LintReport {
        LintReport::default()
    }

    /// Records a finding.
    pub fn push(&mut self, kind: ViolationKind, file: &str, line: u32, detail: impl Into<String>) {
        self.findings.push(Finding {
            kind,
            file: file.to_string(),
            line,
            detail: detail.into(),
        });
    }

    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Distinct violation kinds present, in exit-code order.
    pub fn kinds(&self) -> Vec<ViolationKind> {
        let mut kinds: Vec<ViolationKind> = self.findings.iter().map(|f| f.kind).collect();
        kinds.sort();
        kinds.dedup();
        kinds
    }

    /// The process exit code, mirroring `ktrace-verify`'s convention: 0 when
    /// clean, otherwise the smallest (highest-priority) violation code
    /// present.
    pub fn exit_code(&self) -> u8 {
        self.findings
            .iter()
            .map(|f| f.kind.exit_code())
            .min()
            .unwrap_or(0)
    }

    /// Names of every failing pass, in exit-code (severity) order.
    pub fn failing_passes(&self) -> Vec<&'static str> {
        self.kinds().into_iter().map(pass_name).collect()
    }

    /// Human-readable report, one finding per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let s = self.stats;
        let _ = writeln!(
            out,
            "scanned {} file(s): {} hot-path fn(s) walked",
            s.files_scanned, s.hot_fns_walked,
        );
        let _ = writeln!(
            out,
            "concurrency: {} lock class(es) / {} edge(s)",
            s.lock_classes, s.lock_edges,
        );
        for f in &self.findings {
            let _ = writeln!(
                out,
                "error[{}]: {}:{}: {}",
                f.kind.label(),
                f.file,
                f.line,
                f.detail
            );
        }
        let failing = self.failing_passes();
        if !failing.is_empty() {
            let _ = writeln!(out, "failing pass(es): {}", failing.join(", "));
        }
        let _ = writeln!(
            out,
            "{} violation(s) -> exit {}",
            self.findings.len(),
            self.exit_code()
        );
        out
    }

    /// Machine-readable JSON (hand-rolled; no serde in this workspace).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"violations\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"kind\": \"{}\", \"exit_code\": {}, \"file\": \"{}\", \"line\": {}, \"detail\": \"{}\"}}",
                f.kind.label(),
                f.kind.exit_code(),
                json_escape(&f.file),
                f.line,
                json_escape(&f.detail)
            );
        }
        let s = self.stats;
        let failing: Vec<String> = self
            .failing_passes()
            .iter()
            .map(|p| format!("\"{p}\""))
            .collect();
        let _ = write!(
            out,
            "\n  ],\n  \"stats\": {{\"files_scanned\": {}, \"hot_fns_walked\": {}, \
             \"lock_classes\": {}, \"lock_edges\": {}}},\n  \
             \"failing_passes\": [{}],\n  \
             \"exit_code\": {}\n}}\n",
            s.files_scanned,
            s.hot_fns_walked,
            s.lock_classes,
            s.lock_edges,
            failing.join(", "),
            self.exit_code()
        );
        out
    }
}

/// The lint pass a violation class belongs to (static kinds only; dynamic
/// kinds fall back to their label — they never appear in a lint report).
pub fn pass_name(kind: ViolationKind) -> &'static str {
    match kind {
        ViolationKind::HotPathHazard => "hotpath",
        ViolationKind::LockOrderCycle => "lockorder",
        other => other.label(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_shared_table() {
        let mut r = LintReport::new();
        assert_eq!(r.exit_code(), 0);
        r.push(ViolationKind::LockOrderCycle, "a.rs", 2, "y");
        assert_eq!(r.exit_code(), 34);
        r.push(ViolationKind::HotPathHazard, "a.rs", 3, "z");
        assert_eq!(r.exit_code(), 32);
        assert_eq!(
            r.kinds(),
            vec![ViolationKind::HotPathHazard, ViolationKind::LockOrderCycle]
        );
    }

    #[test]
    fn multi_pass_failures_exit_with_the_lowest_code() {
        // Both passes failing: lowest code wins, both are listed.
        let mut r = LintReport::new();
        r.push(ViolationKind::LockOrderCycle, "a.rs", 1, "cycle");
        assert_eq!(r.exit_code(), 34);
        assert_eq!(r.failing_passes(), vec!["lockorder"]);
        r.push(ViolationKind::HotPathHazard, "d.rs", 4, "Vec::new");
        r.push(ViolationKind::LockOrderCycle, "c.rs", 3, "cycle");
        assert_eq!(r.exit_code(), 32);
        assert_eq!(r.failing_passes(), vec!["hotpath", "lockorder"]);
        let text = r.render();
        assert!(text.contains("failing pass(es): hotpath, lockorder"));
        let json = r.to_json();
        assert!(json.contains("\"failing_passes\": [\"hotpath\", \"lockorder\"]"));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let mut r = LintReport::new();
        r.push(
            ViolationKind::HotPathHazard,
            "a \"b\".rs",
            1,
            "line1\nline2",
        );
        let j = r.to_json();
        assert!(j.contains("\"violations\""));
        assert!(j.contains("hot-path-hazard"));
        assert!(j.contains("a \\\"b\\\".rs"));
        assert!(j.contains("line1\\nline2"));
        assert!(j.contains("\"exit_code\": 32"));
    }
}
