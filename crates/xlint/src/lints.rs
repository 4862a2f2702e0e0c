//! The repo-specific lints. Each pass walks a [`SourceFile`]'s code
//! channel and emits [`Finding`]s; waiver application happens afterwards
//! in [`crate::report`].

use crate::scan::SourceFile;

/// The lints the analyzer knows, by stable kebab-case name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// `unwrap()` / `expect()` / `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!` in non-test library code.
    PanicFreedom,
    /// `unwrap`/`expect` directly on a fallible `PageStore`/`Wal`-style
    /// I/O call.
    IoFallibility,
    /// `partial_cmp(…)` defaulted with `unwrap_or…`: not a total order
    /// once a key is NaN, and `sort_by` may panic on it.
    TotalOrder,
    /// Taking a pool shard latch while a backend `RwLock` guard is live
    /// (inverts the strict shard → backend order).
    LockOrder,
    /// An atomic `Ordering::…` use without a nearby `// ordering:`
    /// justification comment.
    AtomicsJustification,
    /// Public item without rustdoc.
    DocCoverage,
    /// A waiver comment that suppressed nothing.
    UnusedWaiver,
    /// A waiver comment missing its `-- reason` or unparsable.
    MalformedWaiver,
}

impl Lint {
    /// Stable name used in waivers, reports and the baseline.
    pub fn name(self) -> &'static str {
        match self {
            Lint::PanicFreedom => "panic-freedom",
            Lint::IoFallibility => "io-fallibility",
            Lint::TotalOrder => "total-order",
            Lint::LockOrder => "lock-order",
            Lint::AtomicsJustification => "atomics-justification",
            Lint::DocCoverage => "doc-coverage",
            Lint::UnusedWaiver => "unused-waiver",
            Lint::MalformedWaiver => "malformed-waiver",
        }
    }

    /// Every waivable lint (the waiver-hygiene lints cannot be waived).
    pub fn waivable() -> &'static [Lint] {
        &[
            Lint::PanicFreedom,
            Lint::IoFallibility,
            Lint::TotalOrder,
            Lint::LockOrder,
            Lint::AtomicsJustification,
            Lint::DocCoverage,
        ]
    }
}

/// Which lints run on a scanned directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintSet {
    /// Run `panic-freedom`.
    pub panic_freedom: bool,
    /// Run `io-fallibility`.
    pub io_fallibility: bool,
    /// Run `lock-order`.
    pub lock_order: bool,
    /// Run `atomics-justification`.
    pub atomics: bool,
    /// Run `doc-coverage`.
    pub doc_coverage: bool,
}

impl LintSet {
    /// Every lint enabled.
    pub fn all() -> Self {
        Self {
            panic_freedom: true,
            io_fallibility: true,
            lock_order: true,
            atomics: true,
            doc_coverage: true,
        }
    }
}

/// One raw finding (waiver state filled in later).
#[derive(Debug, Clone)]
pub struct Finding {
    /// The lint that fired.
    pub lint: Lint,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Trimmed source excerpt.
    pub snippet: String,
    /// Set during waiver application.
    pub waived: bool,
    /// Waiver reason when waived.
    pub reason: String,
}

fn finding(lint: Lint, file: &SourceFile, line: usize, detail: &str) -> Finding {
    let raw = file
        .lines
        .get(line - 1)
        .map(|l| l.code.trim())
        .unwrap_or_default();
    let snippet = if detail.is_empty() {
        truncate(raw)
    } else {
        format!("{detail}: {}", truncate(raw))
    };
    Finding {
        lint,
        file: file.path.clone(),
        line,
        snippet,
        waived: false,
        reason: String::new(),
    }
}

fn truncate(s: &str) -> String {
    if s.len() > 90 {
        let mut end = 90;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    } else {
        s.to_string()
    }
}

/// Runs the enabled lints over one file; `total-order` runs on every
/// scanned file.
pub fn run_all(file: &SourceFile, set: LintSet, out: &mut Vec<Finding>) {
    if set.panic_freedom {
        panic_freedom(file, out);
    }
    if set.io_fallibility {
        io_fallibility(file, out);
    }
    total_order(file, out);
    if set.lock_order {
        lock_order(file, out);
    }
    if set.atomics {
        atomics_justification(file, out);
    }
    if set.doc_coverage {
        doc_coverage(file, out);
    }
}

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

fn panic_freedom(file: &SourceFile, out: &mut Vec<Finding>) {
    for (n, line) in file.numbered() {
        if line.in_test {
            continue;
        }
        for tok in PANIC_TOKENS {
            if line.code.contains(tok) {
                out.push(finding(Lint::PanicFreedom, file, n, tok));
                break; // one finding per line
            }
        }
    }
}

/// Calls whose `io::Result` must not be unwrapped: the `PageStore`
/// surface, the WAL, and the commit protocol built on them.
const IO_TOKENS: &[&str] = &[
    "read_into(",
    "peek_into(",
    "read_page(",
    "peek_page(",
    ".allocate()",
    ".flush()",
    ".sync()",
    ".commit(",
    ".checkpoint(",
    ".append_image(",
    ".append_alloc(",
    ".append_release(",
    ".append_meta(",
    ".apply_through(",
    ".write_back(",
    ".recover(",
    ".truncate_log(",
    ".try_stats()",
];

fn has_io_call(code: &str) -> bool {
    if IO_TOKENS.iter().any(|t| code.contains(t)) {
        return true;
    }
    // `.write(` with arguments is a page write; `.write()` is an RwLock
    // acquisition and not I/O.
    code.match_indices(".write(")
        .any(|(i, _)| code.as_bytes().get(i + 7) != Some(&b')'))
}

/// Whether `pred` holds for `code_before` (line `n`'s code up to its
/// trigger) or, when line `n` continues a chain broken across lines
/// (starts with `.`), for one of up to three lines above it in the same
/// statement.
fn chain_reaches(
    file: &SourceFile,
    n: usize,
    code_before: &str,
    pred: impl Fn(&str) -> bool,
) -> bool {
    if pred(code_before) {
        return true;
    }
    let Some(line) = file.lines.get(n - 1) else {
        return false;
    };
    if !line.code.trim_start().starts_with('.') {
        return false;
    }
    for back in 1..=3usize {
        let Some(prev) = n.checked_sub(back + 1).and_then(|i| file.lines.get(i)) else {
            break;
        };
        if pred(&prev.code) {
            return true;
        }
        if prev.code.trim_end().ends_with(';') {
            break; // previous statement — stop the walk
        }
    }
    false
}

fn io_fallibility(file: &SourceFile, out: &mut Vec<Finding>) {
    for (n, line) in file.numbered() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        if !(code.contains(".unwrap()") || code.contains(".expect(")) {
            continue;
        }
        if chain_reaches(file, n, code, has_io_call) {
            out.push(finding(
                Lint::IoFallibility,
                file,
                n,
                "unwrap on io::Result",
            ));
        }
    }
}

fn total_order(file: &SourceFile, out: &mut Vec<Finding>) {
    for (n, line) in file.numbered() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        let Some(at) = code.find(".unwrap_or") else {
            continue;
        };
        if chain_reaches(file, n, &code[..at], |c| c.contains("partial_cmp(")) {
            out.push(finding(
                Lint::TotalOrder,
                file,
                n,
                "partial_cmp defaulted with unwrap_or; use total_cmp",
            ));
        }
    }
}

/// Backend RwLock acquisition (the *second* lock in the shard → backend
/// protocol).
fn backend_acquisition(code: &str) -> Option<usize> {
    for tok in [
        "read_lock(",
        "write_lock(",
        "backend.read()",
        "backend.write()",
    ] {
        if let Some(i) = code.find(tok) {
            // `read_lock(` must not match inside `spread_lock(` etc.
            let ok = i == 0 || {
                let prev = code.as_bytes()[i - 1];
                !prev.is_ascii_alphanumeric() && prev != b'_'
            };
            if ok {
                return Some(i);
            }
        }
    }
    None
}

/// Shard latch acquisition: `lock(…shard…)` or `…shard….lock()`.
fn shard_acquisition(code: &str) -> Option<usize> {
    for (i, _) in code.match_indices("lock(") {
        let standalone = i == 0 || {
            let prev = code.as_bytes()[i - 1];
            !prev.is_ascii_alphanumeric() && prev != b'_' && prev != b'.'
        };
        let arg = &code[i + 5..];
        if standalone && arg.contains("shard") {
            return Some(i);
        }
    }
    for (i, _) in code.match_indices(".lock()") {
        if code[..i].contains("shard") {
            return Some(i);
        }
    }
    None
}

fn lock_order(file: &SourceFile, out: &mut Vec<Finding>) {
    // (variable name, depth the binding lives at)
    let mut live_backend: Vec<(String, usize)> = Vec::new();
    for (n, line) in file.numbered() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        // Scope exits kill bindings from deeper blocks.
        live_backend.retain(|(_, d)| *d <= line.depth_before);
        // Explicit drops.
        if let Some(i) = code.find("drop(") {
            let arg: String = code[i + 5..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            live_backend.retain(|(v, _)| *v != arg);
        }

        let backend_at = backend_acquisition(code);
        if let Some(shard_at) = shard_acquisition(code) {
            let inline_inversion = backend_at.is_some_and(|b| b < shard_at);
            if !live_backend.is_empty() || inline_inversion {
                out.push(finding(
                    Lint::LockOrder,
                    file,
                    n,
                    "shard latch taken while a backend guard is live",
                ));
            }
        }

        // A `let`-bound backend guard stays live to the end of its block.
        if backend_at.is_some() {
            let trimmed = code.trim_start();
            if let Some(rest) = trimmed.strip_prefix("let ") {
                let rest = rest.strip_prefix("mut ").unwrap_or(rest);
                let var: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !var.is_empty() && var != "_" {
                    live_backend.push((var, line.depth_before));
                }
            }
        }
    }
}

const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

fn atomics_justification(file: &SourceFile, out: &mut Vec<Finding>) {
    for (n, line) in file.numbered() {
        if line.in_test {
            continue;
        }
        if !ATOMIC_ORDERINGS.iter().any(|t| line.code.contains(t)) {
            continue;
        }
        if line.comment.contains("ordering:") {
            continue;
        }
        // Walk upward over the contiguous run of atomic uses, comments
        // and attributes that a single justification comment covers.
        let mut justified = false;
        let mut idx = n - 1; // 0-based index of current line
        while idx > 0 {
            idx -= 1;
            let prev = &file.lines[idx];
            if prev.comment.contains("ordering:") {
                justified = true;
                break;
            }
            let code = prev.code.trim();
            let continues = code.is_empty()
                || code.starts_with("#[")
                || ATOMIC_ORDERINGS.iter().any(|t| code.contains(t))
                || !prev.comment.trim().is_empty();
            if !continues {
                break;
            }
        }
        if !justified {
            out.push(finding(
                Lint::AtomicsJustification,
                file,
                n,
                "atomic Ordering without `// ordering:` justification",
            ));
        }
    }
}

const DOC_ITEM_PREFIXES: &[&str] = &[
    "pub fn ",
    "pub const fn ",
    "pub async fn ",
    "pub unsafe fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub type ",
    "pub const ",
    "pub static ",
    "pub mod ",
    "pub union ",
];

fn doc_item(code: &str) -> bool {
    let t = code.trim_start();
    // `pub mod x;` re-exports a file module that carries its own `//!`
    // docs (rustdoc agrees: missing_docs does not fire on it); only the
    // inline `pub mod x { … }` form needs docs at the declaration.
    if t.starts_with("pub mod ") && t.trim_end().ends_with(';') {
        return false;
    }
    DOC_ITEM_PREFIXES.iter().any(|p| t.starts_with(p))
}

fn doc_coverage(file: &SourceFile, out: &mut Vec<Finding>) {
    // Depth-0 block context: does depth 1 belong to an inherent impl?
    let mut inherent_impl = false;
    for (n, line) in file.numbered() {
        if line.in_test {
            continue;
        }
        let code = line.code.trim();
        if line.depth_before == 0 && code.starts_with("impl") {
            inherent_impl = !code.contains(" for ");
        }
        let at_module_level = line.depth_before == 0;
        let at_inherent_method = line.depth_before == 1 && inherent_impl;
        if !(at_module_level || at_inherent_method) || !doc_item(code) {
            continue;
        }
        // Walk up over attributes to the first meaningful line; it must
        // be a doc comment.
        let mut documented = false;
        let mut idx = n - 1;
        while idx > 0 {
            idx -= 1;
            let prev = &file.lines[idx];
            let pc = prev.code.trim();
            let comment = prev.comment.trim();
            // `//!` is deliberately absent: an inner doc comment documents
            // the enclosing module, not the item that happens to follow it.
            if comment.starts_with("///") || pc.starts_with("#[doc") {
                documented = true;
                break;
            }
            // Attributes (possibly multi-line) and blank lines between the
            // docs and the item are fine; plain `//` comments count as
            // documentation intent — rustdoc coverage proper is enforced
            // by `#![warn(missing_docs)]`.
            let continues = pc.is_empty() && comment.is_empty()
                || pc.starts_with("#[")
                || pc.ends_with(")]")
                || !comment.is_empty();
            if !continues {
                break;
            }
        }
        if !documented {
            out.push(finding(
                Lint::DocCoverage,
                file,
                n,
                "public item without rustdoc",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("t.rs", src);
        let mut out = Vec::new();
        run_all(&f, LintSet::all(), &mut out);
        out
    }

    fn count(findings: &[Finding], lint: Lint) -> usize {
        findings.iter().filter(|f| f.lint == lint).count()
    }

    #[test]
    fn panic_tokens_fire_outside_tests_only() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn b() { y.unwrap(); } }\n";
        let f = run(src);
        assert_eq!(count(&f, Lint::PanicFreedom), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let f = run("fn a() { x.unwrap_or(1); y.unwrap_or_else(|| 2); z.unwrap_or_default(); }\n");
        assert_eq!(count(&f, Lint::PanicFreedom), 0);
    }

    #[test]
    fn io_unwrap_fires_including_chained_next_line() {
        let src = "fn a(s: &S) {\n    s.read_into(id, &mut buf).unwrap();\n    s.write(id, data)\n        .expect(\"boom\");\n    lk.write().unwrap();\n}\n";
        let f = run(src);
        assert_eq!(count(&f, Lint::IoFallibility), 2, "{f:?}");
    }

    #[test]
    fn defaulted_partial_cmp_fires_including_chained_next_line() {
        let src = "fn a(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Equal));\n    v.sort_by(|a, b| {\n        a.partial_cmp(b)\n            .unwrap_or(Equal)\n    });\n    v.sort_by(|a, b| a.total_cmp(b));\n    let o = a.partial_cmp(b)?;\n    x.unwrap_or(0);\n}\n";
        let f = run(src);
        let lines: Vec<usize> = f
            .iter()
            .filter(|x| x.lint == Lint::TotalOrder)
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![2, 5], "{f:?}");
    }

    #[test]
    fn lock_order_inversion_is_flagged() {
        let src = "fn bad(&self) {\n    let g = read_lock(&self.backend);\n    let s = lock(self.shard(id));\n}\nfn good(&self) {\n    let s = lock(self.shard(id));\n    let g = read_lock(&self.backend);\n}\n";
        let f = run(src);
        assert_eq!(count(&f, Lint::LockOrder), 1);
        assert_eq!(
            f.iter().find(|x| x.lint == Lint::LockOrder).map(|x| x.line),
            Some(3)
        );
    }

    #[test]
    fn lock_order_respects_scope_exit_and_drop() {
        let src = "fn ok(&self) {\n    {\n        let g = write_lock(&self.backend);\n    }\n    let s = lock(self.shard(id));\n}\nfn ok2(&self) {\n    let g = write_lock(&self.backend);\n    drop(g);\n    let s = lock(self.shard(id));\n}\n";
        let f = run(src);
        assert_eq!(count(&f, Lint::LockOrder), 0, "{f:?}");
    }

    #[test]
    fn atomics_need_ordering_comment() {
        let src = "fn a(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n    // ordering: Relaxed — independent counter.\n    c.fetch_add(1, Ordering::Relaxed);\n    c.load(Ordering::Relaxed);\n}\n";
        let f = run(src);
        // Line 2 is unjustified; lines 4–5 share the comment above them.
        assert_eq!(count(&f, Lint::AtomicsJustification), 1);
        assert_eq!(
            f.iter()
                .find(|x| x.lint == Lint::AtomicsJustification)
                .map(|x| x.line),
            Some(2)
        );
    }

    #[test]
    fn doc_coverage_flags_undocumented_public_items() {
        let src = "/// Documented.\npub fn a() {}\npub fn b() {}\nimpl Foo {\n    pub fn m(&self) {}\n}\nimpl Bar for Foo {\n    pub fn t(&self) {}\n}\n";
        let f = run(src);
        let lines: Vec<usize> = f
            .iter()
            .filter(|x| x.lint == Lint::DocCoverage)
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![3, 5], "{f:?}");
    }
}
