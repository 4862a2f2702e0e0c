//! Workspace scanning: which directories are analyzed and with which
//! lints enabled.

use crate::lints::{run_all, LintSet};
use crate::report::{apply_waivers, sort_findings, Report};
use crate::scan::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One scanned directory tree and the lints that apply to it.
#[derive(Debug, Clone)]
pub struct Target {
    /// Workspace-relative directory, `/`-separated (e.g. `crates/core/src`).
    pub dir: String,
    /// Enabled lints.
    pub lints: LintSet,
}

/// What to scan.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Scanned directory trees.
    pub targets: Vec<Target>,
}

impl ScanConfig {
    /// The repo's committed configuration.
    ///
    /// * `panic-freedom`, `total-order`, `lock-order` and
    ///   `atomics-justification` run on every library crate (the bench
    ///   harness, examples and the offline `rand` shim are exempt: they are
    ///   not serving-path code).
    /// * `io-fallibility` runs where `PageStore`/`Wal` calls live:
    ///   `store`, `rstar` and `core`.
    /// * `doc-coverage` runs on the crates whose rustdoc is the public
    ///   API surface: `core`, `store`, `pdf`.
    pub fn workspace() -> Self {
        let lib = |dir: &str, io: bool, doc: bool| Target {
            dir: dir.to_string(),
            lints: LintSet {
                panic_freedom: true,
                io_fallibility: io,
                lock_order: true,
                atomics: true,
                doc_coverage: doc,
            },
        };
        Self {
            targets: vec![
                lib("crates/geom/src", false, false),
                lib("crates/pdf/src", false, true),
                lib("crates/lp/src", false, false),
                lib("crates/store/src", true, true),
                lib("crates/rstar/src", true, false),
                lib("crates/core/src", true, true),
                lib("crates/datagen/src", false, false),
                lib("crates/xlint/src", false, false),
                lib("src", false, false),
            ],
        }
    }

    /// Every lint on a single directory — what the fixture tests use.
    pub fn all_lints_in(dir: &str) -> Self {
        Self {
            targets: vec![Target {
                dir: dir.to_string(),
                lints: LintSet::all(),
            }],
        }
    }
}

/// Runs the analyzer over `root` with `config`.
pub fn analyze(root: &Path, config: &ScanConfig) -> io::Result<Report> {
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    for target in &config.targets {
        let dir = root.join(&target.dir);
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("scan target `{}` is not a directory", target.dir),
            ));
        }
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        for path in files {
            let source = fs::read_to_string(&path)?;
            let rel = relative(root, &path);
            let parsed = SourceFile::parse(&rel, &source);
            let mut file_findings = Vec::new();
            run_all(&parsed, target.lints, &mut file_findings);
            apply_waivers(&parsed, &mut file_findings);
            findings.extend(file_findings);
            files_scanned += 1;
        }
    }
    sort_findings(&mut findings);
    Ok(Report {
        findings,
        files_scanned,
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Finds the workspace root: walks up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
