//! Hot-path hygiene: the lockless logging path must never allocate, block,
//! or perform I/O.
//!
//! The paper's logging fast path is "a compare-and-swap reservation in a
//! per-CPU buffer" — safe to call from any kernel context, including
//! interrupt handlers. In this reproduction that path is
//! `TraceLogger::log` / `CpuHandle::log*` → `CpuRegion::log_raw` →
//! `reserve`/`write_event`/`commit` in `crates/core`. This pass builds a
//! function-level call graph over the given files, roots it at every
//! `log*`/`reserve*`/`commit*` function (plus any `macro_rules!` body, whose
//! expansion could land on the path), and flags heap allocation, blocking
//! locks, panicking asserts, sleeps, and I/O anywhere reachable.
//!
//! Deliberate slow paths (e.g. `log_fields`, which consults the registry
//! under an `RwLock`) opt out with a `// ktrace-lint: allow(hot-path)`
//! comment inside the function.

use crate::lexer::{skip_group, strip_test_modules, tokenize, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One extracted function (or `macro_rules!` pseudo-function).
#[derive(Debug)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body tokens (between the braces).
    pub body: Vec<Tok>,
    /// Signature tokens (between the function name and the body's `{`):
    /// parameter list, return type, where-clauses. Empty for macro bodies.
    /// The lock-order pass reads parameter types from here.
    pub sig: Vec<Tok>,
    /// True when the body carries a `ktrace-lint: allow(hot-path)` comment.
    pub allowed: bool,
    /// True for `macro_rules!` bodies (always treated as roots — a macro
    /// in a hot-path file may expand into the fast path).
    pub is_macro: bool,
    /// The `impl` block's type name, for associated functions; `None` for
    /// free functions and macro bodies. Lets `Type::name(…)` calls resolve
    /// to the right `name` instead of every `name` in scope.
    pub owner: Option<String>,
}

/// A single hazard occurrence inside a function body.
#[derive(Debug)]
pub struct Hazard {
    pub line: u32,
    pub what: &'static str,
}

/// Extracts all functions and `macro_rules!` bodies from `src`, with
/// `#[cfg(test)] mod` regions removed.
pub fn extract_fns(src: &str, file: &str) -> Vec<FnInfo> {
    let toks = strip_test_modules(tokenize(src));
    let mut fns = Vec::new();
    // Stack of enclosing impl blocks: (token index past the closing brace,
    // implemented type name). Popped by position as the scan advances.
    let mut impls: Vec<(usize, String)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        while impls.last().is_some_and(|(end, _)| *end <= i) {
            impls.pop();
        }
        if toks[i].is_ident("impl") {
            // Header runs to the body's `{`; the implemented type is the
            // first identifier after `for` (trait impls) or after `impl`
            // (inherent impls), skipping generic params.
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                if toks[j].is_punct("(") || toks[j].is_punct("[") {
                    j = skip_group(&toks, j);
                    continue;
                }
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct("{") {
                let header = &toks[i + 1..j];
                let after_for = header
                    .iter()
                    .position(|t| t.is_ident("for"))
                    .and_then(|k| header[k + 1..].iter().find(|t| t.kind == TokKind::Ident));
                let owner = after_for
                    .or_else(|| header.iter().find(|t| t.kind == TokKind::Ident))
                    .map(|t| t.text.clone());
                if let Some(owner) = owner {
                    impls.push((skip_group(&toks, j), owner));
                }
                i = j + 1;
                continue;
            }
        }
        if toks[i].is_ident("macro_rules")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
        {
            let name = toks[i + 2].text.clone();
            let line = toks[i + 2].line;
            let Some(open) = (i + 3..toks.len()).find(|&k| toks[k].is_punct("{")) else {
                break;
            };
            let end = skip_group(&toks, open);
            let body: Vec<Tok> = toks[open + 1..end.saturating_sub(1)].to_vec();
            let allowed = has_allow(&body);
            fns.push(FnInfo {
                name,
                file: file.to_string(),
                line,
                body,
                sig: Vec::new(),
                allowed,
                is_macro: true,
                owner: None,
            });
            i = end;
            continue;
        }
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            // Find the body's opening brace; a `;` first means a bodyless
            // trait-method declaration.
            let mut j = i + 2;
            let mut body_open = None;
            while j < toks.len() {
                if toks[j].is_punct(";") {
                    break;
                }
                if toks[j].is_punct("{") {
                    body_open = Some(j);
                    break;
                }
                if toks[j].is_punct("(") || toks[j].is_punct("[") {
                    j = skip_group(&toks, j);
                    continue;
                }
                j += 1;
            }
            let Some(open) = body_open else {
                i = j + 1;
                continue;
            };
            let end = skip_group(&toks, open);
            let body: Vec<Tok> = toks[open + 1..end.saturating_sub(1)].to_vec();
            let sig: Vec<Tok> = toks[i + 2..open].to_vec();
            let allowed = has_allow(&body);
            fns.push(FnInfo {
                name,
                file: file.to_string(),
                line,
                body,
                sig,
                allowed,
                is_macro: false,
                owner: impls.last().map(|(_, o)| o.clone()),
            });
            // Continue scanning *inside* the body too (nested fns/closures
            // rarely matter here, but don't skip call sites): we simply
            // advance past the signature; nested `fn` items will be found
            // again because we don't skip the body region.
            i = open + 1;
            continue;
        }
        i += 1;
    }
    fns
}

fn has_allow(body: &[Tok]) -> bool {
    body.iter().any(|t| {
        t.kind == TokKind::LintComment && t.text.contains("allow") && t.text.contains("hot-path")
    })
}

/// True if `name` is a hot-path root.
pub fn is_root(f: &FnInfo) -> bool {
    f.is_macro
        || f.name.starts_with("log")
        || f.name.starts_with("reserve")
        || f.name.starts_with("commit")
}

/// Scans a body for hazard tokens.
pub fn hazards(body: &[Tok]) -> Vec<Hazard> {
    const ALLOC_MACROS: &[&str] = &["format", "vec"];
    const IO_MACROS: &[&str] = &[
        "print", "println", "eprint", "eprintln", "write", "writeln", "dbg",
    ];
    const PANIC_MACROS: &[&str] = &[
        "panic",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    const BLOCKING_METHODS: &[&str] = &["lock", "read", "write"];
    const ALLOC_METHODS: &[&str] = &[
        "to_string",
        "to_owned",
        "to_vec",
        "push",
        "push_str",
        "collect",
        "insert",
        "extend",
    ];

    let mut out = Vec::new();
    for (k, t) in body.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = body.get(k + 1);
        let prev = if k > 0 { Some(&body[k - 1]) } else { None };
        let name = t.text.as_str();
        // Macro invocations.
        if next.is_some_and(|n| n.is_punct("!")) {
            if ALLOC_MACROS.contains(&name) {
                out.push(Hazard {
                    line: t.line,
                    what: "heap-allocating macro",
                });
            } else if IO_MACROS.contains(&name) {
                out.push(Hazard {
                    line: t.line,
                    what: "I/O macro",
                });
            } else if PANIC_MACROS.contains(&name) {
                out.push(Hazard {
                    line: t.line,
                    what: "panicking assertion/macro",
                });
            }
            continue;
        }
        // Method calls.
        if prev.is_some_and(|p| p.is_punct(".")) && next.is_some_and(|n| n.is_punct("(")) {
            if BLOCKING_METHODS.contains(&name) {
                out.push(Hazard {
                    line: t.line,
                    what: "blocking lock or I/O method",
                });
            } else if ALLOC_METHODS.contains(&name) {
                out.push(Hazard {
                    line: t.line,
                    what: "heap-allocating method",
                });
            }
            continue;
        }
        // Paths.
        if next.is_some_and(|n| n.is_punct("::")) {
            let seg2 = body.get(k + 2).map(|t2| t2.text.as_str());
            match (name, seg2) {
                ("String", _) | ("Vec", _) | ("VecDeque", _) | ("HashMap", _) | ("BTreeMap", _) => {
                    out.push(Hazard {
                        line: t.line,
                        what: "heap-allocating type constructor",
                    });
                }
                ("Box", Some("new")) => {
                    out.push(Hazard {
                        line: t.line,
                        what: "heap allocation (Box::new)",
                    });
                }
                ("thread", Some("sleep" | "park" | "yield_now")) => {
                    out.push(Hazard {
                        line: t.line,
                        what: "blocking thread call",
                    });
                }
                ("File", _) | ("fs", _) | ("io", Some("stdout" | "stderr" | "stdin")) => {
                    out.push(Hazard {
                        line: t.line,
                        what: "file/console I/O",
                    });
                }
                _ => {}
            }
        }
    }
    out
}

/// A hazard attributed to a reachable function.
#[derive(Debug)]
pub struct HotPathFinding {
    pub file: String,
    pub line: u32,
    pub detail: String,
}

/// Runs the pass over the given `(path, source)` files. Returns the
/// findings plus the number of functions walked.
pub fn hotpath_pass(files: &[(String, String)]) -> (Vec<HotPathFinding>, usize) {
    let mut fns: Vec<FnInfo> = Vec::new();
    for (path, src) in files {
        fns.extend(extract_fns(src, path));
    }
    // Name → indices (duplicates possible across impls; treat all same-name
    // functions as one node — conservative for a linter).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(idx);
    }

    // BFS from roots; remember which root reached each function.
    let mut reached: BTreeMap<usize, String> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (idx, f) in fns.iter().enumerate() {
        if is_root(f) && !f.allowed {
            reached.insert(idx, f.name.clone());
            queue.push_back(idx);
        }
    }
    while let Some(idx) = queue.pop_front() {
        let root = reached[&idx].clone();
        let caller_owner = fns[idx].owner.clone();
        let body = &fns[idx].body;
        for (k, t) in body.iter().enumerate() {
            if t.kind != TokKind::Ident || !body.get(k + 1).is_some_and(|n| n.is_punct("(")) {
                continue;
            }
            let qualifier = call_qualifier(body, k, caller_owner.as_deref());
            let Some(callees) = by_name.get(t.text.as_str()) else {
                continue;
            };
            for &c in callees {
                let owner_matches = match &qualifier {
                    Some(q) => fns[c].owner.as_deref() == Some(q.as_str()),
                    None => true,
                };
                if owner_matches && !fns[c].allowed && !reached.contains_key(&c) {
                    reached.insert(c, root.clone());
                    queue.push_back(c);
                }
            }
        }
    }

    let mut findings = Vec::new();
    let mut seen: BTreeSet<(String, u32, &'static str)> = BTreeSet::new();
    for (&idx, root) in &reached {
        let f = &fns[idx];
        for h in hazards(&f.body) {
            if seen.insert((f.file.clone(), h.line, h.what)) {
                findings.push(HotPathFinding {
                    file: f.file.clone(),
                    line: h.line,
                    detail: format!(
                        "{} in `{}` (reachable from hot-path root `{}`)",
                        h.what, f.name, root
                    ),
                });
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    (findings, reached.len())
}

/// The path qualifier of the call at `body[k]`: `Type::name(…)` resolves
/// only within `impl Type` (`Self::` maps to the caller's own impl); method
/// calls (`x.name(…)`) and bare calls return `None` and match by name alone
/// — conservative, but receiver types aren't tracked.
fn call_qualifier(body: &[Tok], k: usize, caller_owner: Option<&str>) -> Option<String> {
    if k < 2 || !body[k - 1].is_punct("::") {
        return None;
    }
    let q = &body[k - 2];
    if q.is_ident("Self") {
        return caller_owner.map(str::to_string);
    }
    (q.kind == TokKind::Ident).then(|| q.text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_alloc_lock_and_io_transitively() {
        let src = r#"
            impl R {
                pub fn log_raw(&self, p: &[u64]) -> bool {
                    self.reserve(p.len())
                }
                fn reserve(&self, n: usize) -> bool {
                    let msg = format!("{n}");
                    self.names.lock().push(msg);
                    helper();
                    true
                }
            }
            fn helper() {
                std::thread::sleep(d);
            }
            fn unrelated() {
                let v = vec![1, 2, 3]; // not reachable from a root
            }
        "#;
        let (findings, walked) = hotpath_pass(&[("r.rs".into(), src.into())]);
        assert!(walked >= 3);
        let details: Vec<&str> = findings.iter().map(|f| f.detail.as_str()).collect();
        assert!(details.iter().any(|d| d.contains("heap-allocating macro")));
        assert!(details.iter().any(|d| d.contains("blocking lock")));
        assert!(details.iter().any(|d| d.contains("blocking thread call")));
        assert!(!details.iter().any(|d| d.contains("unrelated")));
    }

    #[test]
    fn filesystem_paths_are_io() {
        let src = r#"
            fn log_raw(&self) -> u64 { scale() }
            fn scale() -> u64 {
                std::fs::read_to_string("/sys/x").map_or(0, |s| s.len() as u64)
            }
        "#;
        let (findings, _) = hotpath_pass(&[("c.rs".into(), src.into())]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].detail.contains("file/console I/O in `scale`"));
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = r#"
            pub fn log_fields(&self) -> bool {
                // ktrace-lint: allow(hot-path) — registry lookup is the documented slow path
                let words: Vec<u64> = self.registry.read().encode();
                true
            }
            pub fn log_slice(&self) -> bool { true }
        "#;
        let (findings, _) = hotpath_pass(&[("l.rs".into(), src.into())]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn atomics_are_not_flagged() {
        let src = r#"
            fn reserve(&self) -> bool {
                let old = self.index.load(Ordering::Relaxed);
                self.index.compare_exchange_weak(old, old + 1, Ordering::AcqRel, Ordering::Relaxed).is_ok()
            }
            fn commit(&self, at: u64, len: usize) {
                self.committed[slot].fetch_add(len as u64, Ordering::Release);
            }
        "#;
        let (findings, _) = hotpath_pass(&[("r.rs".into(), src.into())]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn qualified_calls_resolve_by_impl_owner() {
        // `EventHeader::new(…)` on the hot path must not drag in the
        // allocating constructors of unrelated types that happen to also be
        // called `new`.
        let src = r#"
            impl TraceLogger {
                pub fn new(config: Config) -> Self {
                    let mut regions = Vec::new();
                    regions.push(Region::default());
                    Self { regions }
                }
            }
            impl CpuRegion {
                fn log_raw(&self, major: u8) -> bool {
                    let hdr = EventHeader::new(major);
                    Self::pack(hdr)
                }
                fn pack(h: EventHeader) -> bool {
                    let s = String::new();
                    true
                }
            }
        "#;
        let (findings, _) = hotpath_pass(&[("r.rs".into(), src.into())]);
        assert!(
            !findings.iter().any(|f| f.detail.contains("`new`")),
            "constructor falsely reached: {findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.detail.contains("pack")),
            "Self:: call should resolve within the impl: {findings:?}"
        );
    }

    #[test]
    fn macro_rules_bodies_are_roots() {
        let src = r#"
            macro_rules! arity_logger {
                ($name:ident) => {
                    pub fn $name(&self) -> bool { self.write_hdr() }
                };
            }
            fn write_hdr(&self) -> bool {
                let s = String::new();
                true
            }
        "#;
        let (findings, _) = hotpath_pass(&[("l.rs".into(), src.into())]);
        assert!(
            findings.iter().any(|f| f.detail.contains("write_hdr")),
            "{findings:?}"
        );
    }
}
