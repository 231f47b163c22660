//! The lint report: findings, warnings, and the shared exit-code table.
//!
//! `ktrace-lint` draws its violation classes from the same
//! [`ViolationKind`] enum as the dynamic stream verifier (`ktrace-verify`),
//! so a CI exit code identifies the broken invariant regardless of which
//! tool found it: dynamic stream checks exit 10–20, static source checks
//! exit 30 (`schema-mismatch`), 31 (`id-space-collision`), 32
//! (`hot-path-hazard`), 33 (`atomic-order-violation`), 34
//! (`lock-order-cycle`), or 35 (`unsafe-unjustified`); 0/1/2 stay reserved
//! for clean/unreadable/usage. When several passes fail, the exit code is
//! the **lowest** (most severe) code present and the report lists every
//! failing pass.

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

/// A style warning: not a violation, but promoted to one under
/// `--deny-warnings` (which CI uses).
#[derive(Debug, Clone)]
pub struct Warning {
    /// Short machine-greppable label.
    pub label: &'static str,
    pub file: String,
    pub line: u32,
    pub detail: String,
}

/// Scan statistics, reported alongside findings so "clean" is
/// distinguishable from "didn't look".
#[derive(Debug, Clone, Copy, Default)]
pub struct LintStats {
    /// Files tokenized across all passes.
    pub files_scanned: usize,
    /// Event-logging call sites recognized.
    pub call_sites_seen: usize,
    /// Call sites with a statically checkable (major, minor) pair.
    pub call_sites_checked: usize,
    /// Events declared in the schema.
    pub events_declared: usize,
    /// Functions walked by the hot-path pass.
    pub hot_fns_walked: usize,
    /// Atomic operations whose orderings the atomics pass checked.
    pub atomic_ops_checked: usize,
    /// Atomic fields with a declared protocol role.
    pub atomic_fields_declared: usize,
    /// Lock classes discovered by the lock-order pass.
    pub lock_classes: usize,
    /// Static lock-acquisition edges discovered.
    pub lock_edges: usize,
    /// `unsafe` blocks/declarations found by the unsafe pass.
    pub unsafe_blocks: usize,
    /// `unsafe` blocks found in hot-path files (the unsafe census).
    pub unsafe_hot: usize,
}

/// The complete lint outcome.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Violations, in discovery order.
    pub findings: Vec<Finding>,
    /// Style warnings (fatal only under `--deny-warnings`).
    pub warnings: Vec<Warning>,
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

    /// Records a warning.
    pub fn warn(&mut self, label: &'static str, file: &str, line: u32, detail: impl Into<String>) {
        self.warnings.push(Warning {
            label,
            file: file.to_string(),
            line,
            detail: detail.into(),
        });
    }

    /// True when nothing was found (warnings count only under deny).
    pub fn is_clean(&self, deny_warnings: bool) -> bool {
        self.findings.is_empty() && (!deny_warnings || self.warnings.is_empty())
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
    /// present. Warnings map to the schema-mismatch code under deny, and
    /// that code competes with the findings' codes on equal footing — a
    /// report with lock-order findings (34) *and* denied warnings (30)
    /// deterministically exits 30, the most severe code present.
    pub fn exit_code(&self, deny_warnings: bool) -> u8 {
        let mut code = self
            .findings
            .iter()
            .map(|f| f.kind.exit_code())
            .min()
            .unwrap_or(0);
        if deny_warnings && !self.warnings.is_empty() {
            let w = ViolationKind::SchemaMismatch.exit_code();
            code = if code == 0 { w } else { code.min(w) };
        }
        code
    }

    /// Names of every failing pass, in exit-code (severity) order. Denied
    /// warnings count as a `schema` failure, matching [`exit_code`].
    ///
    /// [`exit_code`]: LintReport::exit_code
    pub fn failing_passes(&self, deny_warnings: bool) -> Vec<&'static str> {
        let mut kinds = self.kinds();
        if deny_warnings && !self.warnings.is_empty() {
            kinds.push(ViolationKind::SchemaMismatch);
        }
        kinds.sort();
        kinds.dedup();
        kinds.into_iter().map(pass_name).collect()
    }

    /// Human-readable report, one finding per line.
    pub fn render(&self, deny_warnings: bool) -> String {
        let mut out = String::new();
        let s = self.stats;
        let _ = writeln!(
            out,
            "scanned {} file(s): {} event(s) declared, {}/{} call site(s) statically checked, \
             {} hot-path fn(s) walked",
            s.files_scanned,
            s.events_declared,
            s.call_sites_checked,
            s.call_sites_seen,
            s.hot_fns_walked,
        );
        let _ = writeln!(
            out,
            "concurrency: {} atomic op(s) checked against {} declared field(s), \
             {} lock class(es) / {} edge(s), {} unsafe block(s) ({} hot)",
            s.atomic_ops_checked,
            s.atomic_fields_declared,
            s.lock_classes,
            s.lock_edges,
            s.unsafe_blocks,
            s.unsafe_hot,
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
        for w in &self.warnings {
            let sev = if deny_warnings { "error" } else { "warning" };
            let _ = writeln!(
                out,
                "{sev}[{}]: {}:{}: {}",
                w.label, w.file, w.line, w.detail
            );
        }
        let failing = self.failing_passes(deny_warnings);
        if !failing.is_empty() {
            let _ = writeln!(out, "failing pass(es): {}", failing.join(", "));
        }
        let _ = writeln!(
            out,
            "{} violation(s), {} warning(s) -> exit {}",
            self.findings.len(),
            self.warnings.len(),
            self.exit_code(deny_warnings)
        );
        out
    }

    /// Machine-readable JSON (hand-rolled; no serde in this workspace).
    pub fn to_json(&self, deny_warnings: bool) -> String {
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
        out.push_str("\n  ],\n  \"warnings\": [");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"label\": \"{}\", \"file\": \"{}\", \"line\": {}, \"detail\": \"{}\"}}",
                w.label,
                json_escape(&w.file),
                w.line,
                json_escape(&w.detail)
            );
        }
        let s = self.stats;
        let failing: Vec<String> = self
            .failing_passes(deny_warnings)
            .iter()
            .map(|p| format!("\"{p}\""))
            .collect();
        let _ = write!(
            out,
            "\n  ],\n  \"stats\": {{\"files_scanned\": {}, \"events_declared\": {}, \
             \"call_sites_seen\": {}, \"call_sites_checked\": {}, \"hot_fns_walked\": {}, \
             \"atomic_ops_checked\": {}, \"atomic_fields_declared\": {}, \
             \"lock_classes\": {}, \"lock_edges\": {}, \
             \"unsafe_blocks\": {}, \"unsafe_hot\": {}}},\n  \
             \"failing_passes\": [{}],\n  \
             \"exit_code\": {}\n}}\n",
            s.files_scanned,
            s.events_declared,
            s.call_sites_seen,
            s.call_sites_checked,
            s.hot_fns_walked,
            s.atomic_ops_checked,
            s.atomic_fields_declared,
            s.lock_classes,
            s.lock_edges,
            s.unsafe_blocks,
            s.unsafe_hot,
            failing.join(", "),
            self.exit_code(deny_warnings)
        );
        out
    }
}

/// The lint pass a violation class belongs to (static kinds only; dynamic
/// kinds fall back to their label — they never appear in a lint report).
pub fn pass_name(kind: ViolationKind) -> &'static str {
    match kind {
        ViolationKind::SchemaMismatch => "schema",
        ViolationKind::IdSpaceCollision => "idspace",
        ViolationKind::HotPathHazard => "hotpath",
        ViolationKind::AtomicOrderViolation => "atomics",
        ViolationKind::LockOrderCycle => "lockorder",
        ViolationKind::UnsafeUnjustified => "unsafe",
        other => other.label(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_shared_table() {
        let mut r = LintReport::new();
        assert_eq!(r.exit_code(false), 0);
        r.push(ViolationKind::HotPathHazard, "a.rs", 1, "x");
        assert_eq!(r.exit_code(false), 32);
        r.push(ViolationKind::IdSpaceCollision, "a.rs", 2, "y");
        assert_eq!(r.exit_code(false), 31);
        r.push(ViolationKind::SchemaMismatch, "a.rs", 3, "z");
        assert_eq!(r.exit_code(false), 30);
        assert_eq!(
            r.kinds(),
            vec![
                ViolationKind::SchemaMismatch,
                ViolationKind::IdSpaceCollision,
                ViolationKind::HotPathHazard
            ]
        );
    }

    #[test]
    fn warnings_fatal_only_under_deny() {
        let mut r = LintReport::new();
        r.warn("literal-minor", "b.rs", 9, "use the named const");
        assert!(r.is_clean(false));
        assert_eq!(r.exit_code(false), 0);
        assert!(!r.is_clean(true));
        assert_eq!(r.exit_code(true), ViolationKind::SchemaMismatch.exit_code());
    }

    #[test]
    fn multi_pass_failures_exit_with_the_lowest_code() {
        // Regression: findings at 34 plus denied warnings (30) must exit 30,
        // not whatever the findings alone would give.
        let mut r = LintReport::new();
        r.push(ViolationKind::LockOrderCycle, "a.rs", 1, "cycle");
        r.warn("literal-minor", "b.rs", 2, "style");
        assert_eq!(r.exit_code(false), 34);
        assert_eq!(r.exit_code(true), 30);
        assert_eq!(r.failing_passes(false), vec!["lockorder"]);
        assert_eq!(r.failing_passes(true), vec!["schema", "lockorder"]);

        // Three failing passes: lowest code wins, all three are listed.
        r.push(ViolationKind::UnsafeUnjustified, "c.rs", 3, "no SAFETY");
        r.push(ViolationKind::AtomicOrderViolation, "d.rs", 4, "Relaxed");
        assert_eq!(r.exit_code(false), 33);
        assert_eq!(
            r.failing_passes(false),
            vec!["atomics", "lockorder", "unsafe"]
        );
        let text = r.render(false);
        assert!(text.contains("failing pass(es): atomics, lockorder, unsafe"));
        let json = r.to_json(false);
        assert!(json.contains("\"failing_passes\": [\"atomics\", \"lockorder\", \"unsafe\"]"));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let mut r = LintReport::new();
        r.push(
            ViolationKind::SchemaMismatch,
            "a \"b\".rs",
            1,
            "line1\nline2",
        );
        let j = r.to_json(false);
        assert!(j.contains("\"violations\""));
        assert!(j.contains("schema-mismatch"));
        assert!(j.contains("a \\\"b\\\".rs"));
        assert!(j.contains("line1\\nline2"));
        assert!(j.contains("\"exit_code\": 30"));
    }
}
