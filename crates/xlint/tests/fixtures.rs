//! Fixture-driven integration tests: every lint fires on its seeded
//! violations with exact counts, waivers suppress exactly what they name,
//! the JSON report is stable, and the live workspace matches the
//! committed `LINT_BASELINE.json` ratchet.

use std::path::{Path, PathBuf};
use xlint::{analyze, Baseline, Finding, Lint, Report, ScanConfig};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn count(report: &Report, file: &str, lint: Lint, waived: bool) -> usize {
    report
        .findings
        .iter()
        .filter(|f| f.file == file && f.lint == lint && f.waived == waived)
        .count()
}

#[test]
fn panic_freedom_fires_on_each_macro_and_skips_tests_and_strings() {
    let r = analyze(&fixture_root(), &ScanConfig::all_lints_in("violations")).unwrap();
    let file = "violations/panics.rs";
    assert_eq!(
        count(&r, file, Lint::PanicFreedom, false),
        5,
        "unwrap, expect, panic!, unreachable!, todo! — one each:\n{}",
        r.to_json()
    );
    // Nothing from the #[cfg(test)] module or the masked string literal:
    // the five findings all sit before the test module starts.
    let last = r
        .findings
        .iter()
        .filter(|f| f.file == file && f.lint == Lint::PanicFreedom)
        .map(|f| f.line)
        .max()
        .unwrap();
    assert!(last < 32, "a finding leaked past the library code: {last}");
}

#[test]
fn io_fallibility_flags_store_calls_including_chains() {
    let r = analyze(&fixture_root(), &ScanConfig::all_lints_in("violations")).unwrap();
    let file = "violations/io.rs";
    // read_into same-line, write( chained across lines, allocate():
    assert_eq!(
        count(&r, file, Lint::IoFallibility, false),
        3,
        "{}",
        r.to_json()
    );
    // All four unwrap/expect sites are also panic-freedom findings
    // (including the RwLock `.write()` one, which is NOT I/O).
    assert_eq!(count(&r, file, Lint::PanicFreedom, false), 4);
}

#[test]
fn total_order_flags_defaulted_partial_cmp_including_chains() {
    let r = analyze(&fixture_root(), &ScanConfig::all_lints_in("violations")).unwrap();
    let file = "violations/order.rs";
    let lines: Vec<usize> = r
        .findings
        .iter()
        .filter(|f| f.file == file && f.lint == Lint::TotalOrder && !f.waived)
        .map(|f| f.line)
        .collect();
    // Same line, split across lines (reported on the `unwrap_or` line),
    // `unwrap_or_else`; `total_cmp`, a `?`-propagated `partial_cmp`, an
    // unrelated `unwrap_or` and the test module are clean.
    assert_eq!(lines, vec![4, 11, 16], "{}", r.to_json());
}

#[test]
fn lock_order_flags_shard_after_backend_only() {
    let r = analyze(&fixture_root(), &ScanConfig::all_lints_in("violations")).unwrap();
    let file = "violations/locks.rs";
    let findings: Vec<&Finding> = r
        .findings
        .iter()
        .filter(|f| f.file == file && f.lint == Lint::LockOrder)
        .collect();
    assert_eq!(
        findings.len(),
        2,
        "wrong_order and wrong_order_via_read only:\n{}",
        r.to_json()
    );
    assert!(findings.iter().all(|f| !f.waived));
    // The legal shard→backend order and the dropped-guard case are clean:
    // both violations sit in the first two functions.
    assert!(findings.iter().all(|f| f.line < 15), "{findings:?}");
}

#[test]
fn atomics_need_an_ordering_comment_nearby() {
    let r = analyze(&fixture_root(), &ScanConfig::all_lints_in("violations")).unwrap();
    let file = "violations/atomics.rs";
    let lines: Vec<usize> = r
        .findings
        .iter()
        .filter(|f| f.file == file && f.lint == Lint::AtomicsJustification)
        .map(|f| f.line)
        .collect();
    // `unjustified` and `second_unjustified`; the same-line, above-line
    // and shared-contiguous-block comments all satisfy the lint.
    assert_eq!(lines.len(), 2, "{}", r.to_json());
}

#[test]
fn doc_coverage_flags_undocumented_public_items() {
    let r = analyze(&fixture_root(), &ScanConfig::all_lints_in("violations")).unwrap();
    let file = "violations/docs.rs";
    // Undocumented struct, undocumented free fn, undocumented inherent
    // method; private and pub(crate) items are exempt.
    assert_eq!(
        count(&r, file, Lint::DocCoverage, false),
        3,
        "{}",
        r.to_json()
    );
}

#[test]
fn waivers_suppress_exactly_what_they_name() {
    let r = analyze(&fixture_root(), &ScanConfig::all_lints_in("waivers")).unwrap();
    let file = "waivers/waived.rs";
    // Standalone, trailing, and the two-lint waiver; the two-lint line
    // yields one panic-freedom and one io-fallibility finding, both waived.
    assert_eq!(count(&r, file, Lint::PanicFreedom, true), 3);
    assert_eq!(count(&r, file, Lint::IoFallibility, true), 1);
    // The malformed waiver suppresses nothing and is itself reported;
    // `not_waived` stays active.
    assert_eq!(count(&r, file, Lint::PanicFreedom, false), 2);
    assert_eq!(count(&r, file, Lint::MalformedWaiver, false), 1);
    assert_eq!(count(&r, file, Lint::UnusedWaiver, false), 1);
    // Every waived finding carries its reason.
    assert!(r.waived().all(|f| !f.reason.is_empty()));
}

#[test]
fn json_report_is_stable_and_sorted() {
    let root = fixture_root();
    let a = analyze(&root, &ScanConfig::all_lints_in("violations")).unwrap();
    let b = analyze(&root, &ScanConfig::all_lints_in("violations")).unwrap();
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "repeat runs must be byte-identical"
    );
    let keys: Vec<(String, usize, &str)> = a
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.lint.name()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must come out in canonical order");
    assert!(a.to_json().contains("\"summary\""));
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xlint lives two levels under the workspace root")
        .to_path_buf()
}

/// The tree as committed carries zero active findings and matches the
/// frozen baseline — the same gate CI runs.
#[test]
fn live_workspace_matches_committed_baseline() {
    let root = workspace_root();
    let report = analyze(&root, &ScanConfig::workspace()).unwrap();
    let active: Vec<String> = report
        .active()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.lint.name(), f.snippet))
        .collect();
    assert!(active.is_empty(), "active findings:\n{}", active.join("\n"));

    let text = std::fs::read_to_string(root.join("LINT_BASELINE.json")).unwrap();
    let baseline = Baseline::parse(&text).unwrap();
    let outcome = baseline.check(&report);
    assert!(
        outcome.violations.is_empty(),
        "ratchet violations:\n{}",
        outcome.violations.join("\n")
    );
}

/// A fresh unwrap in a store file fails the ratchet even though the file
/// already has baselined waivers — active findings are never absorbed.
#[test]
fn ratchet_fails_on_a_fresh_unwrap() {
    let root = workspace_root();
    let mut report = analyze(&root, &ScanConfig::workspace()).unwrap();
    report.findings.push(Finding {
        lint: Lint::PanicFreedom,
        file: "crates/store/src/disk.rs".to_string(),
        line: 1,
        snippet: ".unwrap(): simulated fresh violation".to_string(),
        waived: false,
        reason: String::new(),
    });
    let text = std::fs::read_to_string(root.join("LINT_BASELINE.json")).unwrap();
    let baseline = Baseline::parse(&text).unwrap();
    let outcome = baseline.check(&report);
    assert_eq!(outcome.violations.len(), 1);
    assert!(outcome.violations[0].contains("disk.rs"));
}

/// Growing the waiver set (one more waived finding than frozen) also
/// fails until the baseline is regenerated deliberately.
#[test]
fn ratchet_fails_on_waiver_growth() {
    let root = workspace_root();
    let mut report = analyze(&root, &ScanConfig::workspace()).unwrap();
    report.findings.push(Finding {
        lint: Lint::PanicFreedom,
        file: "crates/store/src/disk.rs".to_string(),
        line: 1,
        snippet: ".unwrap(): simulated new waived site".to_string(),
        waived: true,
        reason: "simulated".to_string(),
    });
    let text = std::fs::read_to_string(root.join("LINT_BASELINE.json")).unwrap();
    let baseline = Baseline::parse(&text).unwrap();
    let outcome = baseline.check(&report);
    assert_eq!(outcome.violations.len(), 1, "{:?}", outcome.violations);
    assert!(outcome.violations[0].contains("waiver set grew"));
}

/// Removing a waiver only produces a (non-fatal) shrink note.
#[test]
fn ratchet_notes_shrinkage_without_failing() {
    let root = workspace_root();
    let report = analyze(&root, &ScanConfig::workspace()).unwrap();
    let mut baseline =
        Baseline::parse(&std::fs::read_to_string(root.join("LINT_BASELINE.json")).unwrap())
            .unwrap();
    // Pretend the baseline froze one more waiver than the tree has.
    let key = (
        "panic-freedom".to_string(),
        "crates/store/src/disk.rs".to_string(),
    );
    *baseline.waived.entry(key).or_insert(0) += 1;
    let outcome = baseline.check(&report);
    assert!(outcome.violations.is_empty());
    assert!(!outcome.shrinkable.is_empty());
}
